// Checkpoints: the on-disk form of everything the journal no longer has to
// hold. A checkpoint is a small mutable catalogue plus bulk immutable
// files, all regular files directly inside Config.DataDir:
//
//	snapshot.json       the manifest: counters, tenants, worker telemetry,
//	                    and one entry per resident job — a status summary
//	                    for completed jobs, a packed replay ledger for
//	                    running ones. Replaced atomically each checkpoint.
//	workload-<job>.bin  a running job's workload (api.EncodeWorkload),
//	                    written once: workloads never change after submit,
//	                    so a checkpoint only writes the files of jobs that
//	                    arrived since the last one.
//
// A checkpoint therefore costs what changed — the ledgers and a few
// counters — not what is resident. Crash safety rests on three orderings:
// a workload file is durable before any manifest that relies on it is
// renamed in; the manifest is durable before the journal it supersedes is
// rotated; and a workload file is removed only after a durable manifest
// stopped relying on it. A crash between any two steps leaves at worst
// unreferenced files, which the next recovery sweeps.
//
// Both are api.Coder field lists (disk format 4; docs/PROTOCOL.md has the
// tables). The manifest travels as the replication catch-up document too,
// there with every running job's workload inline: one self-contained body,
// assembled from these files on the leader (checkpointDocument) and split
// back into them on the follower (writeCheckpoint). Leader and standby
// open a data dir through one opener (open, recovery.go) and checkpoint it
// through one snapshot (persist.go); they and the replication source all
// read through readManifest and loadWorkload — restore loads each running
// job's file as part of that job's own rebuild, so the decodes overlap —
// and write through writeCheckpoint.
package service

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gridsched/internal/journal"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// Persistence layout inside Config.DataDir. The binary manifest keeps the
// JSON formats' name: an older binary fails to parse it before its sweep,
// where a manifest it cannot find reads as no checkpoint, every workload
// file a stray to delete.
const (
	walFile        = "wal.log"
	snapshotFile   = "snapshot.json"
	workloadPrefix = "workload-"
	workloadSuffix = ".bin"
)

// manifestHeader heads a manifest and a catch-up document. Like the stored
// workload's header it is versioned on its own, apart from the wire's: its
// last byte is the disk format.
var manifestHeader = []byte{'G', 'M', 4}

// legacyManifestHeader heads disk format 3's manifest and catch-up document,
// whose workloads code each file id as a varint of its own.
var legacyManifestHeader = []byte{'G', 'M', 3}

func workloadPath(dir, jobID string) string {
	return filepath.Join(dir, workloadPrefix+jobID+workloadSuffix)
}

// Ledger ops: the per-job replay history, a compact projection of the
// job's journal records. Replaying a ledger through the job's freshly
// rebuilt scheduler reproduces its dispatch state exactly (see recovery.go).
const (
	ledgerDispatch = uint8(iota)
	ledgerSuccess
	ledgerFailure
	ledgerExpire
	// ledgerSpecDispatch is a speculative twin grant: the task was
	// re-leased alongside a live primary without consulting the
	// scheduler. Replay restages the batch and NoteBatches it, but issues
	// no ReplayAssign.
	ledgerSpecDispatch
)

// ledgerRec is one replayable scheduler-affecting event.
type ledgerRec struct {
	Op     uint8
	Task   workload.TaskID
	Site   int32
	Worker int32
	Ts     int64 // unix milliseconds
}

// ledgerRecSize is one packed ledger record: op u8, task u32, site u32,
// worker u32, ts u64, little-endian.
const ledgerRecSize = 1 + 4 + 4 + 4 + 8

// packedLedger is a job's append-only replay ledger as a flat array of
// fixed-width records. It is the in-memory form too, so checkpointing a
// ledger is a copy of bytes that already exist (one api.Coder blob), not an
// encoding per event.
type packedLedger []byte

func (l packedLedger) len() int { return len(l) / ledgerRecSize }

func (l packedLedger) at(i int) ledgerRec {
	b := l[i*ledgerRecSize : (i+1)*ledgerRecSize]
	return ledgerRec{
		Op:     b[0],
		Task:   workload.TaskID(binary.LittleEndian.Uint32(b[1:])),
		Site:   int32(binary.LittleEndian.Uint32(b[5:])),
		Worker: int32(binary.LittleEndian.Uint32(b[9:])),
		Ts:     int64(binary.LittleEndian.Uint64(b[13:])),
	}
}

func (l packedLedger) add(e ledgerRec) packedLedger {
	l = append(l, e.Op)
	l = binary.LittleEndian.AppendUint32(l, uint32(e.Task))
	l = binary.LittleEndian.AppendUint32(l, uint32(e.Site))
	l = binary.LittleEndian.AppendUint32(l, uint32(e.Worker))
	return binary.LittleEndian.AppendUint64(l, uint64(e.Ts))
}

// carryCounters preserves the monotone totals of deleted jobs across
// snapshots, so the global /metrics counters stay exact over restarts.
type carryCounters struct {
	Jobs          int64
	CompletedJobs int64
	Dispatched    int64
	Completions   int64
	Failures      int64
	Cancellations int64
	Expired       int64
	Speculated    int64
}

// snapshot is the checkpoint document: everything the service needs so
// that log records at or below LastLSN can be discarded. Completed jobs
// shrink to their status summary; running jobs carry their replay ledger
// and — in their workload file, or inline in a replication message — their
// workload. Scheduler internals (weight-class indexes, RNG state) are
// deliberately NOT serialized — they are reconstructed by replaying the
// ledger through a freshly built scheduler, which reproduces the exact
// state (including pending random draws) of the crashed process. The one
// number that is kept, a job's Draws, is a position in a stream the seed
// defines, not state: it spares the replay the deciding, not the rebuilding.
type snapshot struct {
	Seq int64
	// Partition identity the data dir was written under (see
	// Config.PartitionIndex); the count is at least 1.
	PartitionIndex int
	PartitionCount int
	LastLSN        uint64
	Carry          carryCounters
	// VTime is the fair-share arbiter's virtual time floor and Tenants its
	// per-tenant durable state; journal tail records re-apply charges on
	// top (see recovery.go).
	VTime   uint64
	Tenants []snapTenant // sorted by name
	Jobs    []snapJob    // submission order
	// Workers is the per-slot telemetry (duration/failure EWMAs); journal
	// tail records fold on top in LSN order. Sorted by (site, worker).
	Workers []snapWorker
}

// snapWorker is one worker slot's accumulated telemetry in a snapshot.
// Fixed-point accumulators are serialized raw so restore is bit-exact.
type snapWorker struct {
	Site     int
	Worker   int
	DurEwma  int64
	FailEwma int64
	Samples  int64
	Events   int64
}

// snapTenant is one tenant's durable state in a snapshot: its quota
// override and its exact cumulative dispatch total (in-flight counts and
// share windows are liveness state and restart empty).
type snapTenant struct {
	Name       string
	Quota      int
	Dispatches int64
}

// snapJob is one resident job in a snapshot: the record that submitted it,
// and what became of the job since. The record holds its id (Job), its
// definition, resolved tenant and weight, constraints, submission time (Ts)
// and — in memory and in a replication message — its workload; a manifest
// on disk never carries the workload (the job's workload file does).
type snapJob struct {
	record
	State    string
	Tasks    int
	Finished int64 // unix milliseconds, 0 while running
	// Fair is a running job's virtual finish tag in the fair-share arbiter,
	// restored exactly so the post-recovery dispatch order matches an
	// uninterrupted run.
	Fair uint64

	// Running jobs: the replay ledger.
	Ledger packedLedger
	// Draws is where the ledger left the scheduler's random stream
	// (core.BulkReplayer), which lets restore fold the ledger instead of
	// deciding it again. Absent — a scheduler that does not offer the mode,
	// a standby's manifest — the ledger is re-asked. A pointer: zero draws
	// is a position too (a ChooseN = 1 job never draws).
	Draws *uint64

	// Completed jobs: the surviving summary.
	Dispatched int
	Completed  int
	Failed     int
	Cancelled  int
	Expired    int
	Speculated int
	Transfers  int64
}

// The field lists of the manifest (disk format 4). Each names its type's
// fields once, in order; the coder's mode decides whether the walk writes
// them or reads them.

func (snap *snapshot) fields(c *api.Coder) {
	api.Num(c, &snap.Seq)
	api.Num(c, &snap.PartitionIndex)
	api.Num(c, &snap.PartitionCount)
	api.Num(c, &snap.LastLSN)
	snap.Carry.fields(c)
	api.Num(c, &snap.VTime)
	for i := range api.Sized(c, &snap.Tenants) {
		snap.Tenants[i].fields(c)
	}
	for i := range api.Sized(c, &snap.Jobs) {
		snap.Jobs[i].fields(c)
	}
	for i := range api.Sized(c, &snap.Workers) {
		snap.Workers[i].fields(c)
	}
}

func (cc *carryCounters) fields(c *api.Coder) {
	api.Num(c, &cc.Jobs)
	api.Num(c, &cc.CompletedJobs)
	api.Num(c, &cc.Dispatched)
	api.Num(c, &cc.Completions)
	api.Num(c, &cc.Failures)
	api.Num(c, &cc.Cancellations)
	api.Num(c, &cc.Expired)
	api.Num(c, &cc.Speculated)
}

func (st *snapTenant) fields(c *api.Coder) {
	c.Str(&st.Name)
	api.Num(c, &st.Quota)
	api.Num(c, &st.Dispatches)
}

func (sw *snapWorker) fields(c *api.Coder) {
	api.Num(c, &sw.Site)
	api.Num(c, &sw.Worker)
	api.Num(c, &sw.DurEwma)
	api.Num(c, &sw.FailEwma)
	api.Num(c, &sw.Samples)
	api.Num(c, &sw.Events)
}

func (sj *snapJob) fields(c *api.Coder) {
	sj.record.fields(c)
	c.Str(&sj.State)
	api.Num(c, &sj.Tasks)
	api.Num(c, &sj.Finished)
	api.Num(c, &sj.Fair)
	c.Bytes((*[]byte)(&sj.Ledger))
	if d := api.Opt(c, &sj.Draws); d != nil {
		api.Num(c, d)
	}
	api.Num(c, &sj.Dispatched)
	api.Num(c, &sj.Completed)
	api.Num(c, &sj.Failed)
	api.Num(c, &sj.Cancelled)
	api.Num(c, &sj.Expired)
	api.Num(c, &sj.Speculated)
	api.Num(c, &sj.Transfers)
}

// encodeSnapshot renders snap under manifestHeader: a manifest, or — with
// its running jobs' workloads inline — a catch-up document. The buffer is
// sized for a manifest, which is mostly ledgers.
func encodeSnapshot(snap *snapshot) ([]byte, error) {
	size := len(manifestHeader) + 128
	for i := range snap.Jobs {
		size += 128 + len(snap.Jobs[i].Ledger)
	}
	c := api.NewEncoder(append(make([]byte, 0, size), manifestHeader...))
	snap.fields(&c)
	return c.Out()
}

// decodeSnapshot parses a checkpoint document — a manifest or a
// replication message.
func decodeSnapshot(data []byte) (*snapshot, error) {
	switch {
	case len(data) > 0 && data[0] == '{':
		return nil, fmt.Errorf("JSON checkpoint document: %w", api.ErrLegacyFormat)
	case bytes.HasPrefix(data, legacyManifestHeader):
		return nil, fmt.Errorf("disk format 3 checkpoint document: %w", api.ErrLegacyFormat)
	case !bytes.HasPrefix(data, manifestHeader):
		return nil, fmt.Errorf("not a disk format 4 checkpoint document (%d bytes)", len(data))
	}
	snap := &snapshot{}
	c := api.NewDecoder(data[len(manifestHeader):])
	snap.fields(&c)
	if err := c.End("checkpoint document"); err != nil {
		return nil, err
	}
	for i := range snap.Jobs {
		// Job ids name files; refuse anything but the minted j<n> form
		// before one reaches a path.
		sj := &snap.Jobs[i]
		switch {
		case sj.Op != opSubmit:
			return nil, fmt.Errorf("snapshot job %d opens with a %s record, not a submit", i, sj.Op)
		case !strings.HasPrefix(sj.Job, "j") || idNum(sj.Job) == 0:
			return nil, fmt.Errorf("snapshot job id %q is not of the form j<n>", sj.Job)
		case len(sj.Ledger)%ledgerRecSize != 0:
			return nil, fmt.Errorf("snapshot job %s: packed ledger of %d bytes is not a whole number of %d-byte records", sj.Job, len(sj.Ledger), ledgerRecSize)
		}
	}
	return snap, nil
}

// readManifest parses dir's manifest without touching workload files; nil
// when the dir holds no checkpoint yet.
func readManifest(dir string) (*snapshot, error) {
	path := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("service: corrupt snapshot %s: %w", path, err)
	}
	return snap, nil
}

// loadWorkload reads and decodes the workload file of one running job of
// dir's manifest. A file that is missing or does not decode to the job's
// task count is an error (wrapping fs.ErrNotExist when missing, so a reader
// racing a live checkpoint can tell and retry). It touches nothing but the
// file, so any number of jobs load at once.
func loadWorkload(dir string, sj *snapJob) (*workload.Workload, error) {
	path := workloadPath(dir, sj.Job)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload file: %w", err)
	}
	w, err := api.DecodeWorkload(data)
	if err != nil {
		return nil, fmt.Errorf("workload file %s: %w", path, err)
	}
	if len(w.Tasks) != sj.Tasks {
		return nil, fmt.Errorf("workload file %s holds %d tasks, manifest says %d", path, len(w.Tasks), sj.Tasks)
	}
	return w, nil
}

// storedJobs names the jobs whose workload snap leaves to a workload file:
// the running ones it does not carry inline (a manifest carries none).
// Empty for a dir that holds no checkpoint yet.
func (snap *snapshot) storedJobs() map[string]struct{} {
	stored := make(map[string]struct{})
	if snap == nil {
		return stored
	}
	for i := range snap.Jobs {
		if sj := &snap.Jobs[i]; sj.State == api.JobRunning && sj.Workload == nil {
			stored[sj.Job] = struct{}{}
		}
	}
	return stored
}

// saveWorkloads writes the workload file of every running job in jobs
// that stored does not list yet, and lists it. Each file is durable under
// its final name (file and directory fsynced) before the call returns.
// Returns the bytes written.
func saveWorkloads(dir string, jobs []snapJob, stored map[string]struct{}) (int64, error) {
	var written int64
	for i := range jobs {
		sj := &jobs[i]
		if sj.State != api.JobRunning || sj.Workload == nil {
			continue
		}
		if _, ok := stored[sj.Job]; ok {
			continue
		}
		data := api.EncodeWorkload(sj.Workload)
		if err := journal.WriteFileAtomic(workloadPath(dir, sj.Job), data); err != nil {
			return written, err
		}
		stored[sj.Job] = struct{}{}
		written += int64(len(data))
	}
	return written, nil
}

// writeCheckpoint makes snap dir's checkpoint: first the workload file of
// every running job not in stored, then the manifest — snap minus the
// inline workloads — replacing snapshot.json atomically. It drops snap's
// inline workloads to do so (every one is in its file by then), which is
// all the callers still need of snap. Rotating the journal and removing
// retired workload files are the caller's next steps, in that order.
// Returns the bytes written.
func writeCheckpoint(dir string, snap *snapshot, stored map[string]struct{}) (int64, error) {
	written, err := saveWorkloads(dir, snap.Jobs, stored)
	if err != nil {
		return written, err
	}
	for i := range snap.Jobs {
		snap.Jobs[i].Workload = nil
	}
	data, err := encodeSnapshot(snap)
	if err != nil {
		return written, err
	}
	if err := journal.WriteFileAtomic(filepath.Join(dir, snapshotFile), data); err != nil {
		return written, err
	}
	return written + int64(len(data)), nil
}

// sweepDataDir removes what a crash mid-checkpoint can strand in dir:
// atomic-write temp files, and workload files no checkpoint refers to
// (keep lists the job ids the current manifest relies on). Call it only
// while nothing is writing into dir.
func sweepDataDir(dir string, keep map[string]struct{}) error {
	if err := journal.RemoveTemp(dir); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		id, ok := strings.CutPrefix(ent.Name(), workloadPrefix)
		if !ok {
			continue
		}
		if id, ok = strings.CutSuffix(id, workloadSuffix); !ok {
			continue
		}
		if _, ok := keep[id]; ok {
			continue
		}
		if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// checkpointDocument assembles dir's checkpoint as one self-contained
// document — the replication catch-up message — when it covers journal
// position next. A nil document means it does not (or none exists yet),
// which costs only the manifest read.
func checkpointDocument(dir string, next uint64) (lsn uint64, doc []byte, err error) {
	snap, err := readManifest(dir)
	if snap == nil || err != nil {
		return 0, nil, err
	}
	if snap.LastLSN < next {
		return snap.LastLSN, nil, nil
	}
	for i := range snap.Jobs {
		sj := &snap.Jobs[i]
		if sj.State != api.JobRunning || sj.Workload != nil {
			continue
		}
		if sj.Workload, err = loadWorkload(dir, sj); err != nil {
			return 0, nil, fmt.Errorf("service: snapshot job %s: %w", sj.Job, err)
		}
	}
	doc, err = encodeSnapshot(snap)
	if err != nil {
		return 0, nil, err
	}
	return snap.LastLSN, doc, nil
}
