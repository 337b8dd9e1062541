// The journal record: what one WAL frame's payload says, and its bytes.
//
// # Format (disk format 4)
//
// A record is one api.Coder field list (record.fields): the first byte is
// its type tag, then its timestamp, then what its type carries, each field
// in the wire's primitives (zigzag varint integers, length-prefixed
// strings). docs/PROTOCOL.md has the table.
//
// Disk format 3 tagged its records 0x11–0x16 (its submit's file ids each a
// varint of its own), disk format 2 1–4, and the oldest binaries journaled
// JSON documents ('{'); none is a tag of this range, so each such record is
// refused by name (api.ErrLegacyFormat) rather than misread.
package service

import (
	"fmt"

	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// Journal record ops. The write-ahead log records every externally visible
// mutation — job submission, task dispatch, execution report, lease
// expiry, job deletion — before it is acknowledged; everything else
// (worker registration, lease renewals, long polls) is ephemeral and is
// reconstructed as re-registration after a restart.
const (
	opSubmit   = "submit"
	opDispatch = "dispatch"
	opReport   = "report"
	opExpire   = "expire"
	opDelete   = "delete"
	// opQuota records a per-tenant in-flight quota override (PUT
	// /v1/tenants/{tenant}); quotas gate live dispatch, so they must
	// survive restarts like every other externally visible setting.
	opQuota = "quota"
)

// recordOps are the record types, in tag order: Names[i] is tagged
// First+i. Tags 1–4 were disk format 2's, 0x11–0x16 disk format 3's.
var recordOps = api.Enum{What: "journal record type", First: 0x21,
	Names: []string{opSubmit, opDispatch, opReport, opExpire, opDelete, opQuota}}

// maxLeaseRecordLen bounds an encoded lease record with minted ids
// ("j<n>", "a<n>", n an int64): callers size stack buffers by it. A longer
// id only costs the append that outgrows the buffer.
const maxLeaseRecordLen = 1 + 10 + 3*5 + 2*(1+20) + 1 // tag, ts, task/site/worker, job and assignment, spec

// record is one journal record, decoded.
type record struct {
	Op string
	Ts int64 // unix milliseconds, for operators and recovered timestamps

	Job string

	// opSubmit
	Name       string
	Algorithm  string
	Seed       int64
	Submission string
	Workload   *workload.Workload
	// Tenant rides on opSubmit (the job's tenant, resolved) and opQuota
	// (the tenant being configured). Weight is the job's resolved
	// fair-share weight — journaled resolved so replay cannot be skewed by
	// a changed server default; absent (0) in pre-fair-share journals and
	// re-resolved against the default at replay. Quota is opQuota's new
	// in-flight cap (0: revert to the server default).
	Tenant string
	Weight int
	Quota  int

	// Context-aware scheduling (opSubmit): required worker tags and the
	// soft deadline (unix millis, 0 = none). Journaled with the submit so
	// a recovered job enforces the same constraints.
	Requires []string
	Deadline int64

	// opDispatch / opReport / opExpire
	Task       workload.TaskID
	Site       int32
	Worker     int32
	Assignment string // opDispatch: minted id, for seq recovery and debugging
	Outcome    string // opReport
	// Spec marks an opDispatch as a speculative twin grant: replayed
	// without a scheduler NextFor and without a fair charge, exactly as
	// it was granted (see stragglerForLocked / replay).
	Spec bool
}

// event is a lease record's ledger event. Anything a report says other
// than success is a failure, as apply has always read it.
func (rec *record) event() ledgerRec {
	e := ledgerRec{Op: ledgerExpire, Task: rec.Task, Site: rec.Site, Worker: rec.Worker, Ts: rec.Ts}
	switch {
	case rec.Op == opDispatch && rec.Spec:
		e.Op = ledgerSpecDispatch
	case rec.Op == opDispatch:
		e.Op = ledgerDispatch
	case rec.Op == opReport && rec.Outcome == api.OutcomeSuccess:
		e.Op = ledgerSuccess
	case rec.Op == opReport:
		e.Op = ledgerFailure
	}
	return e
}

// fields is the record's field list: its type tag, its timestamp, then
// what its type carries. A lease record's op is its tag and only a dispatch
// has an assignment field, so neither an unknown ledger op nor an assignment
// on a report or an expiry can be written down.
func (rec *record) fields(c *api.Coder) {
	c.Enum(&rec.Op, &recordOps)
	api.Num(c, &rec.Ts)
	switch rec.Op {
	case opSubmit:
		c.Str(&rec.Job)
		c.Str(&rec.Name)
		c.Str(&rec.Algorithm)
		api.Num(c, &rec.Seed)
		c.Str(&rec.Submission)
		c.Str(&rec.Tenant)
		api.Num(c, &rec.Weight)
		c.Strs(&rec.Requires)
		api.Num(c, &rec.Deadline)
		if w := api.Opt(c, &rec.Workload); w != nil {
			c.Workload(w)
		}
	case opDispatch, opReport, opExpire:
		c.Str(&rec.Job)
		api.Num(c, &rec.Task)
		api.Num(c, &rec.Site)
		api.Num(c, &rec.Worker)
		switch rec.Op {
		case opDispatch:
			c.Str(&rec.Assignment)
			c.Bool(&rec.Spec)
		case opReport:
			c.Enum(&rec.Outcome, &api.Outcomes)
		}
	case opDelete:
		c.Str(&rec.Job)
	case opQuota:
		c.Str(&rec.Tenant)
		api.Num(c, &rec.Quota)
	}
}

// appendTo appends rec's encoding to dst. Reflection-free, and
// allocation-free when dst has the room.
func (rec *record) appendTo(dst []byte) []byte {
	c := api.NewEncoder(dst)
	rec.fields(&c)
	out, err := c.Out()
	if err != nil {
		panic(fmt.Sprintf("service: journal encode: %v", err))
	}
	return out
}

// decodeRecord reads one journal payload. The bytes are outside input:
// every length is checked against what is left, and nothing in the result
// aliases payload. What the record then names — a job, a task, a worker
// slot — is for applyRecord and replay to check.
func decodeRecord(payload []byte) (record, error) {
	var rec record
	switch {
	case len(payload) > 0 && payload[0] == '{':
		return rec, fmt.Errorf("JSON journal record: %w", api.ErrLegacyFormat)
	case len(payload) > 0 && payload[0] >= 1 && payload[0] <= 4:
		return rec, fmt.Errorf("disk format 2 journal record: %w", api.ErrLegacyFormat)
	case len(payload) > 0 && payload[0] >= 0x11 && payload[0] <= 0x16:
		return rec, fmt.Errorf("disk format 3 journal record: %w", api.ErrLegacyFormat)
	}
	c := api.NewDecoder(payload)
	rec.fields(&c)
	return rec, c.End("journal record")
}
