package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// update rewrites the golden file from the encoder in the tree. The file
// pins disk format 4 — the journal record, the manifest and the catch-up
// document: regenerating it is part of a format bump, never of a refactor.
var update = flag.Bool("update", false, "rewrite testdata/disk-v4.golden from the current encoder")

const diskGoldenPath = "testdata/disk-v4.golden"

// goldenManifest is a manifest with every kind of entry: a running job with
// draws, a running job without (its ledger is re-asked), a completed job,
// two tenants, two worker slots and a non-zero carry. With inline, its
// running jobs carry their workloads: the catch-up document.
func goldenManifest(inline bool) *snapshot {
	draws := uint64(3)
	ledger := packedLedger(nil).
		add(ledgerRec{Op: ledgerDispatch, Task: 1, Site: 0, Worker: 1, Ts: 1700000000100}).
		add(ledgerRec{Op: ledgerSuccess, Task: 1, Site: 0, Worker: 1, Ts: 1700000000200}).
		add(ledgerRec{Op: ledgerSpecDispatch, Task: 0, Site: 1, Worker: 0, Ts: 1700000000300})
	snap := &snapshot{
		Seq: 41, PartitionIndex: 1, PartitionCount: 2, LastLSN: 977,
		Carry: carryCounters{Jobs: 3, CompletedJobs: 3, Dispatched: 120, Completions: 117,
			Failures: 2, Cancellations: 1, Expired: 4, Speculated: 1},
		VTime: 123456789,
		Tenants: []snapTenant{
			{Name: "astro", Quota: 8, Dispatches: 95},
			{Name: "bio", Dispatches: 30},
		},
		Jobs: []snapJob{
			{record: record{Op: opSubmit, Ts: 1700000000000, Job: "j7", Name: "coadd", Algorithm: "combined.2",
				Seed: -42, Submission: "sub-7", Tenant: "astro", Weight: 4,
				Requires: []string{"gpu", "ssd"}, Deadline: 1700000900000},
				State: api.JobRunning, Tasks: 2, Fair: 90210, Ledger: ledger, Draws: &draws},
			{record: record{Op: opSubmit, Ts: 1700000000050, Job: "j9", Name: "fifo", Algorithm: "workqueue",
				Seed: 1, Tenant: "bio", Weight: 1},
				State: api.JobRunning, Tasks: 1, Fair: 12,
				Ledger: packedLedger(nil).add(ledgerRec{Op: ledgerExpire, Ts: 1700000000400})},
			{record: record{Op: opSubmit, Ts: 1690000000000, Job: "j3", Name: "done", Algorithm: "rest",
				Seed: 5, Tenant: "astro", Weight: 4},
				State: api.JobCompleted, Tasks: 2, Finished: 1690000005000,
				Dispatched: 3, Completed: 2, Failed: 1, Expired: 1, Speculated: 1, Transfers: 17},
		},
		Workers: []snapWorker{
			{Site: 0, Worker: 1, DurEwma: 1 << 20, FailEwma: 3, Samples: 9, Events: 11},
			{Site: 1, Worker: 0, Events: 2},
		},
	}
	if inline {
		snap.Jobs[0].Workload = &workload.Workload{Name: "coadd", NumFiles: 6, Tasks: []workload.Task{
			{ID: 0, Files: []workload.FileID{0, 2, 5}},
			{ID: 1, Files: []workload.FileID{1}},
		}}
		snap.Jobs[1].Workload = &workload.Workload{Name: "fifo", NumFiles: 1, Tasks: []workload.Task{{ID: 0}}}
	}
	return snap
}

type diskEntry struct {
	name string
	v    any // a *record, or a *snapshot
}

// diskEntries is everything the golden file pins: every record of
// recordSamples, the manifest, and its catch-up document.
func diskEntries() []diskEntry {
	samples := recordSamples()
	var out []diskEntry
	for _, name := range slices.Sorted(maps.Keys(samples)) {
		out = append(out, diskEntry{"record/" + strings.ReplaceAll(name, " ", "-"), samples[name]})
	}
	return append(out, diskEntry{"manifest", goldenManifest(false)}, diskEntry{"catch-up", goldenManifest(true)})
}

func (e diskEntry) encode() ([]byte, error) {
	if rec, ok := e.v.(*record); ok {
		return rec.appendTo(nil), nil
	}
	return encodeSnapshot(e.v.(*snapshot))
}

func (e diskEntry) decode(data []byte) (any, error) {
	if _, ok := e.v.(*record); ok {
		rec, err := decodeRecord(data)
		return &rec, err
	}
	return decodeSnapshot(data)
}

// readDiskGolden returns the pinned bytes by entry name, in file order.
func readDiskGolden(tb testing.TB) (names []string, byName map[string][]byte) {
	raw, err := os.ReadFile(diskGoldenPath)
	if err != nil {
		tb.Fatal(err)
	}
	byName = map[string][]byte{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, hexBytes, ok := strings.Cut(line, " ")
		if !ok {
			tb.Fatalf("%s: malformed line %q", diskGoldenPath, line)
		}
		data, err := hex.DecodeString(hexBytes)
		if err != nil {
			tb.Fatalf("%s: %s: %v", diskGoldenPath, name, err)
		}
		names = append(names, name)
		byName[name] = data
	}
	return names, byName
}

// TestDiskBytesUnchanged holds the journal record and checkpoint encoders to
// the pinned bytes of disk format 4: each entry encodes to exactly them, they
// decode to exactly the value, and every cut of them is refused.
func TestDiskBytesUnchanged(t *testing.T) {
	entries := diskEntries()
	if *update {
		var buf bytes.Buffer
		for _, e := range entries {
			data, err := e.encode()
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			fmt.Fprintf(&buf, "%s %s\n", e.name, hex.EncodeToString(data))
		}
		if err := os.WriteFile(diskGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names, golden := readDiskGolden(t)
	if len(names) != len(entries) {
		t.Fatalf("%s pins %d entries, the test builds %d", diskGoldenPath, len(names), len(entries))
	}
	for _, e := range entries {
		want, ok := golden[e.name]
		if !ok {
			t.Errorf("%s: not in %s", e.name, diskGoldenPath)
			continue
		}
		got, err := e.encode()
		if err != nil {
			t.Errorf("%s: encode: %v", e.name, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: encodes to\n %x\npinned\n %x", e.name, got, want)
		}
		v, err := e.decode(want)
		if err != nil {
			t.Errorf("%s: decode of the pinned bytes: %v", e.name, err)
		} else if !reflect.DeepEqual(v, e.v) {
			t.Errorf("%s: pinned bytes decode to\n %+v\nwant\n %+v", e.name, v, e.v)
		}
		for n := range want {
			if _, err := e.decode(want[:n:n]); err == nil {
				t.Errorf("%s: decode of the first %d of %d bytes succeeded", e.name, n, len(want))
			}
		}
	}
}

// TestManifestStopsOlderBinaries: a binary older than disk format 3 reads
// snapshot.json as JSON and then removes every workload file its manifest
// does not name. The binary manifest keeps that name and is not JSON, so
// such a binary fails on it before it removes anything; under another name
// it would read the dir as one without a checkpoint and delete every
// running job's workload.
func TestManifestStopsOlderBinaries(t *testing.T) {
	if snapshotFile != "snapshot.json" {
		t.Fatalf("the manifest is written as %s, which an older binary does not read", snapshotFile)
	}
	_, golden := readDiskGolden(t)
	if json.Valid(golden["manifest"]) || json.Valid(golden["catch-up"]) {
		t.Fatal("a disk format 4 checkpoint document parses as JSON")
	}
}

// FuzzDecodeCheckpoint throws arbitrary bytes at the manifest and catch-up
// document decoder. Nothing may panic or allocate beyond a multiple of the
// input (the fuzzer's own limits), and whatever it accepts must re-encode to
// the very bytes it came from and decode to the same value again.
func FuzzDecodeCheckpoint(f *testing.F) {
	names, golden := readDiskGolden(f)
	for _, name := range names {
		if !strings.HasPrefix(name, "record/") {
			f.Add(golden[name])
		}
	}
	f.Add([]byte{})
	f.Add(manifestHeader)
	f.Add([]byte(`{"version":2,"jobs":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		enc, err := encodeSnapshot(snap)
		if err != nil {
			t.Fatalf("an accepted document does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, re-encodes to %x", data, enc)
		}
		again, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoding of an accepted document refused: %v", err)
		}
		if !reflect.DeepEqual(again, snap) {
			t.Fatalf("re-encoding decodes to\n%+v\nfirst decode\n%+v", again, snap)
		}
	})
}
