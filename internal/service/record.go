// The journal record: what one WAL frame's payload says, and its bytes.
//
// # Format
//
// Byte 0 is the record's tag — its op, one of tagSubmit … tagQuota; a
// layout that changes takes a new tag. Integers are little-endian and
// fixed-width; a string is its uvarint length, then its bytes.
//
//	lease     tag | event [21] | job str | assignment str
//	submit    tag | ts u64 | seed u64 | deadline u64 | weight u64 |
//	          job str | name str | algorithm str | submission str |
//	          tenant str | requires: uvarint count, then strs |
//	          workload: api.AppendWorkload's document, to the end
//	delete    tag | ts u64 | job str
//	quota     tag | ts u64 | quota u64 | tenant str
//
// A lease record — dispatch, report, expiry — is the event exactly as the
// job's packed ledger holds it (ledgerRecSize bytes: op u8, task u32, site
// u32, worker u32, ts u64; the op says which of the three it is, a report's
// outcome and whether a dispatch is a speculative twin) plus the ids the
// ledger leaves out. The assignment id is empty unless the event is a
// dispatch.
//
// Binaries up to PR 15 journaled JSON documents instead. No tag is '{', so
// such a record is refused by name (errLegacyFormat) rather than misread.
package service

import (
	"encoding/binary"
	"errors"
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

// Record tags (see the file comment).
const (
	tagSubmit = byte(iota + 1)
	tagLease
	tagDelete
	tagQuota
)

// maxLeaseRecordLen bounds an encoded lease record with minted ids
// ("j<n>", "a<n>", n an int64): callers size stack buffers by it. A longer
// id only costs the append that outgrows the buffer.
const maxLeaseRecordLen = 1 + ledgerRecSize + 2*(1+20)

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
	Site       int
	Worker     int
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
	e := ledgerRec{Op: ledgerExpire, Task: rec.Task, Site: int32(rec.Site), Worker: int32(rec.Worker), Ts: rec.Ts}
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

// appendTo appends rec's encoding to dst. Reflection-free, and
// allocation-free when dst has the room.
func (rec *record) appendTo(dst []byte) []byte {
	switch rec.Op {
	case opDispatch, opReport, opExpire:
		dst = append(dst, tagLease)
		dst = packedLedger(dst).add(rec.event())
		dst = appendStr(dst, rec.Job)
		return appendStr(dst, rec.Assignment)
	case opSubmit:
		dst = append(dst, tagSubmit)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Ts))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Seed))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Deadline))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Weight))
		for _, s := range [...]string{rec.Job, rec.Name, rec.Algorithm, rec.Submission, rec.Tenant} {
			dst = appendStr(dst, s)
		}
		dst = binary.AppendUvarint(dst, uint64(len(rec.Requires)))
		for _, s := range rec.Requires {
			dst = appendStr(dst, s)
		}
		return api.AppendWorkload(dst, rec.Workload)
	case opDelete:
		dst = append(dst, tagDelete)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Ts))
		return appendStr(dst, rec.Job)
	case opQuota:
		dst = append(dst, tagQuota)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Ts))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Quota))
		return appendStr(dst, rec.Tenant)
	}
	panicf("service: journal encode: unknown op %q", rec.Op)
	return nil
}

func appendStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// errLegacyFormat refuses what only a binary older than PR 16 wrote: a JSON
// journal record, a version-1 manifest.
var errLegacyFormat = errors.New("written by a gridschedd older than PR 16, whose formats this binary no longer reads; " +
	"start the PR 17 binary on the data dir once — its first checkpoint rewrites it — then this one")

// decodeRecord reads one journal payload. The bytes are outside input:
// every length is checked against what is left, and nothing in the result
// aliases payload. What the record then names — a job, a task, a worker
// slot — is for applyRecord and replay to check.
func decodeRecord(payload []byte) (record, error) {
	var rec record
	if len(payload) > 0 && payload[0] == '{' {
		return rec, fmt.Errorf("JSON journal record: %w", errLegacyFormat)
	}
	r := recReader{b: payload}
	switch tag := r.byte(); tag {
	case tagLease:
		if e := r.bytes(ledgerRecSize); e != nil {
			ev := packedLedger(e).at(0)
			rec.Ts, rec.Task, rec.Site, rec.Worker = ev.Ts, ev.Task, int(ev.Site), int(ev.Worker)
			switch ev.Op {
			case ledgerDispatch, ledgerSpecDispatch:
				rec.Op, rec.Spec = opDispatch, ev.Op == ledgerSpecDispatch
			case ledgerSuccess:
				rec.Op, rec.Outcome = opReport, api.OutcomeSuccess
			case ledgerFailure:
				rec.Op, rec.Outcome = opReport, api.OutcomeFailure
			case ledgerExpire:
				rec.Op = opExpire
			default:
				return rec, fmt.Errorf("unknown ledger op %d", ev.Op)
			}
		}
		rec.Job = r.str()
		rec.Assignment = r.str()
		if rec.Assignment != "" && rec.Op != opDispatch {
			return rec, fmt.Errorf("%s record carries assignment %q", rec.Op, rec.Assignment)
		}
	case tagSubmit:
		rec.Op = opSubmit
		rec.Ts, rec.Seed, rec.Deadline, rec.Weight = int64(r.u64()), int64(r.u64()), int64(r.u64()), int(r.u64())
		rec.Job, rec.Name, rec.Algorithm, rec.Submission, rec.Tenant = r.str(), r.str(), r.str(), r.str(), r.str()
		// Every string costs at least its length byte.
		if n := r.uvarint(); n > uint64(len(r.b)) {
			r.fail()
		} else if n > 0 {
			rec.Requires = make([]string, n)
			for i := range rec.Requires {
				rec.Requires[i] = r.str()
			}
		}
		if r.bad {
			break
		}
		w, err := api.DecodeWorkload(r.b)
		if err != nil {
			return rec, err
		}
		rec.Workload, r.b = w, nil
	case tagDelete:
		rec.Op, rec.Ts, rec.Job = opDelete, int64(r.u64()), r.str()
	case tagQuota:
		rec.Op, rec.Ts, rec.Quota, rec.Tenant = opQuota, int64(r.u64()), int(r.u64()), r.str()
	default:
		return rec, fmt.Errorf("unknown record tag %#x", tag)
	}
	if r.bad {
		return rec, fmt.Errorf("truncated %s record", rec.Op)
	}
	if len(r.b) > 0 {
		return rec, fmt.Errorf("%d trailing bytes after %s record", len(r.b), rec.Op)
	}
	return rec, nil
}

// recReader consumes a record's fields front to back. A field that is not
// all there sets bad and reads as zero; so does every field after it.
type recReader struct {
	b   []byte
	bad bool
}

func (r *recReader) fail() { r.b, r.bad = nil, true }

func (r *recReader) bytes(n int) []byte {
	if n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *recReader) byte() byte {
	if v := r.bytes(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *recReader) u64() uint64 {
	if v := r.bytes(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (r *recReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 { // one value, one encoding
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recReader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return ""
	}
	return string(r.bytes(int(n)))
}
