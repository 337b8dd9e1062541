package service_test

import (
	"strings"
	"testing"

	"gridsched"
	"gridsched/internal/partition"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

func partitionedConfig(dir string, index, count int) service.Config {
	cfg := durableConfig(dir)
	cfg.PartitionIndex = index
	cfg.PartitionCount = count
	return cfg
}

func smallWorkload(tasks int) *workload.Workload {
	w := &workload.Workload{Name: "part-ids", NumFiles: 16}
	for i := 0; i < tasks; i++ {
		w.Tasks = append(w.Tasks, workload.Task{
			ID:    workload.TaskID(i),
			Files: []workload.FileID{workload.FileID(i % 16)},
		})
	}
	return w
}

// TestPartitionStridedMinting: partition i of n mints every id with
// sequence numbers ≡ i (mod n), so Owner recovers the minting partition
// from any id — the arithmetic the whole routing layer rests on.
func TestPartitionStridedMinting(t *testing.T) {
	const count = 3
	for index := 0; index < count; index++ {
		svc, err := service.New(service.Config{
			Topology:       service.Topology{Sites: 2, WorkersPerSite: 2, CapacityFiles: 64},
			NewScheduler:   gridsched.SchedulerFactory(),
			PartitionIndex: index,
			PartitionCount: count,
		})
		if err != nil {
			t.Fatal(err)
		}
		var minted []string
		for k := 0; k < 3; k++ {
			jobID, err := svc.SubmitJob(api.SubmitJobRequest{Name: "strided", Algorithm: "workqueue", Workload: smallWorkload(2)})
			if err != nil {
				t.Fatal(err)
			}
			minted = append(minted, jobID)
			reg, err := svc.Register(k % 2)
			if err != nil {
				t.Fatal(err)
			}
			minted = append(minted, reg.WorkerID)
			if a := pull(t, svc, reg.WorkerID); a != nil {
				minted = append(minted, a.ID)
			}
		}
		for _, id := range minted {
			owner, ok := partition.Owner(id, count)
			if !ok || owner != index {
				t.Errorf("partition %d of %d minted %q; Owner says %d (ok=%v)",
					index, count, id, owner, ok)
			}
		}
		svc.Close()
	}
}

// TestPartitionZeroOfOneMintsLegacySequence: the standalone configuration
// (partition 0 of 1, or unset) must mint the same 1,2,3… sequence as
// before partitioning existed — no id churn on upgrade.
func TestPartitionZeroOfOneMintsLegacySequence(t *testing.T) {
	svc, err := service.New(service.Config{
		Topology:     service.Topology{Sites: 1, WorkersPerSite: 1, CapacityFiles: 64},
		NewScheduler: gridsched.SchedulerFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	jobID, err := svc.SubmitJob(api.SubmitJobRequest{Name: "legacy", Algorithm: "workqueue", Workload: smallWorkload(1)})
	if err != nil {
		t.Fatal(err)
	}
	if jobID != "j1" {
		t.Fatalf("first minted id %q, want j1 (legacy sequence)", jobID)
	}
}

// TestPartitionIdentityRecovery: a restart with the same identity
// continues minting on the partition's residue class; a restart with a
// different identity is refused with a migration hint.
func TestPartitionIdentityRecovery(t *testing.T) {
	dir := t.TempDir()
	svc, err := service.New(partitionedConfig(dir, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	first, err := svc.SubmitJob(api.SubmitJobRequest{Name: "recover", Algorithm: "workqueue", Workload: smallWorkload(2)})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	svc, err = service.New(partitionedConfig(dir, 1, 2))
	if err != nil {
		t.Fatalf("same-identity restart: %v", err)
	}
	second, err := svc.SubmitJob(api.SubmitJobRequest{Name: "recover-2", Algorithm: "workqueue", Workload: smallWorkload(2)})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	for _, id := range []string{first, second} {
		if owner, ok := partition.Owner(id, 2); !ok || owner != 1 {
			t.Fatalf("id %q not on residue 1 after restart", id)
		}
	}
	if second == first {
		t.Fatalf("restart re-minted %q", first)
	}

	// Wrong index, wrong count, and legacy (unpartitioned) configs must
	// all be refused: the data dir belongs to partition 1 of 2.
	for _, bad := range [][2]int{{0, 2}, {1, 3}, {0, 1}} {
		_, err := service.New(partitionedConfig(dir, bad[0], bad[1]))
		if err == nil || !strings.Contains(err.Error(), "migration") {
			t.Fatalf("identity %v over partition-1-of-2 data dir: err = %v, want migration refusal", bad, err)
		}
	}
}

// TestPartitionLegacyDataDirAdoptable: a pre-partitioning data dir (no
// identity in its snapshot) is readable by partition 0 of 1 only.
func TestPartitionLegacyDataDirAdoptable(t *testing.T) {
	dir := t.TempDir()
	svc, err := service.New(durableConfig(dir)) // no partition identity
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitJob(api.SubmitJobRequest{Name: "legacy-dir", Algorithm: "workqueue", Workload: smallWorkload(1)}); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	if _, err := service.New(partitionedConfig(dir, 1, 2)); err == nil {
		t.Fatal("partition 1 of 2 adopted a legacy data dir")
	}
	svc, err = service.New(partitionedConfig(dir, 0, 1))
	if err != nil {
		t.Fatalf("standalone reopen of legacy dir: %v", err)
	}
	svc.Close()
}

// TestPartitionConfigValidation: out-of-range identities are rejected at
// construction.
func TestPartitionConfigValidation(t *testing.T) {
	for _, bad := range [][2]int{{2, 2}, {-1, 2}, {0, -1}} {
		cfg := service.Config{
			Topology:       service.Topology{Sites: 1, WorkersPerSite: 1, CapacityFiles: 64},
			NewScheduler:   gridsched.SchedulerFactory(),
			PartitionIndex: bad[0],
			PartitionCount: bad[1],
		}
		if _, err := service.New(cfg); err == nil {
			t.Errorf("Config{PartitionIndex: %d, PartitionCount: %d} accepted", bad[0], bad[1])
		}
	}
}
