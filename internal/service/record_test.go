package service

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// recordSamples is one record of every op and every variation an op has.
func recordSamples() map[string]*record {
	w := &workload.Workload{Name: "wl", NumFiles: 9, Tasks: []workload.Task{
		{ID: 0, Files: []workload.FileID{0, 4, 8}},
		{ID: 1, Files: []workload.FileID{2}},
	}}
	return map[string]*record{
		"submit": {Op: opSubmit, Ts: 1700000000123, Job: "j7", Name: "astro", Algorithm: "combined.2",
			Seed: -42, Submission: "sub-1", Tenant: "ta", Weight: 3, Workload: w},
		"submit/requires+deadline": {Op: opSubmit, Ts: 5, Job: "j8", Algorithm: "rest", Weight: 1,
			Requires: []string{"gpu", "ssd"}, Deadline: 4102444800000, Workload: w},
		"submit/empty workload": {Op: opSubmit, Ts: 5, Job: "j9", Algorithm: "workqueue", Weight: 1,
			Workload: &workload.Workload{Name: "nothing"}},
		"dispatch":       {Op: opDispatch, Ts: 1700000000456, Job: "j7", Task: 5999, Site: 9, Worker: 3, Assignment: "a123456"},
		"dispatch/spec":  {Op: opDispatch, Ts: 6, Job: "j7", Task: 1, Site: 1, Worker: 0, Assignment: "a9", Spec: true},
		"report/success": {Op: opReport, Ts: 7, Job: "j7", Task: 1, Site: 1, Worker: 2, Outcome: api.OutcomeSuccess},
		"report/failure": {Op: opReport, Ts: 8, Job: "j123456789", Task: 0, Site: 0, Worker: 0, Outcome: api.OutcomeFailure},
		"expire":         {Op: opExpire, Ts: 9, Job: "j7", Task: 2, Site: 1, Worker: 1},
		"delete":         {Op: opDelete, Ts: 10, Job: "j7"},
		"quota":          {Op: opQuota, Ts: 11, Tenant: "some.tenant-name_0", Quota: 17},
		"quota/revert":   {Op: opQuota, Ts: 12, Tenant: "tb"},
	}
}

// TestRecordRoundTrip: every op decodes to exactly what was encoded, and no
// encoding could be taken for a record older binaries wrote: JSON, disk
// format 2's, tagged 1–4, or disk format 3's, tagged 0x11–0x16.
func TestRecordRoundTrip(t *testing.T) {
	for name, rec := range recordSamples() {
		t.Run(name, func(t *testing.T) {
			enc := rec.appendTo(nil)
			if enc[0] <= 0x16 || enc[0] >= 0x30 {
				t.Fatalf("tag byte %#x is not in (0x16, 0x30)", enc[0])
			}
			got, err := decodeRecord(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&got, rec) {
				t.Fatalf("decoded\n%+v\nencoded\n%+v", got, *rec)
			}
			if again := got.appendTo(nil); !bytes.Equal(again, enc) {
				t.Fatalf("re-encoding differs:\n%x\n%x", again, enc)
			}
			// Every proper prefix is a truncated record, not a shorter one.
			for n := 0; n < len(enc); n++ {
				if _, err := decodeRecord(enc[:n]); err == nil {
					t.Fatalf("the first %d of %d bytes decoded", n, len(enc))
				}
			}
			if _, err := decodeRecord(append(enc, 0)); err == nil {
				t.Fatal("a trailing byte decoded")
			}
		})
	}
	t.Run("lease records fit the stack buffer", func(t *testing.T) {
		rec := record{Op: opDispatch, Ts: 1<<63 - 1, Job: "j9223372036854775807", Assignment: "a9223372036854775807",
			Task: 1<<31 - 1, Site: 1<<31 - 1, Worker: 1<<31 - 1}
		if n := len(rec.appendTo(nil)); n != maxLeaseRecordLen {
			t.Fatalf("largest minted-id lease record is %d bytes, maxLeaseRecordLen says %d", n, maxLeaseRecordLen)
		}
	})
}

// FuzzDecodeRecord throws arbitrary bytes at the journal record decoder.
// Whatever it accepts must be a record the encoder writes back to the very
// bytes it came from: one value, one encoding. Nothing may panic, and
// nothing may allocate beyond a small multiple of the input — both enforced
// by the fuzzer's own limits. What a decoded record names is not checked
// here: TestReplayBoundsChecksCoordinates covers the step that does.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range recordSamples() {
		f.Add(rec.appendTo(nil))
	}
	tag := func(op string) byte { return recordOps.First + byte(slices.Index(recordOps.Names, op)) }
	f.Add([]byte{})
	f.Add([]byte{tag(opQuota), 1})
	f.Add([]byte{tag(opDispatch)})
	f.Add([]byte{tag(opSubmit), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		enc := rec.appendTo(nil)
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, re-encodes to %x", data, enc)
		}
		again, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoding of an accepted record refused: %v", err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("re-encoding decodes to\n%+v\nfirst decode\n%+v", again, rec)
		}
	})
}

// TestReplayBoundsChecksCoordinates: a well-formed record naming a task or
// a worker slot that does not exist is refused by replay, whichever format
// carried it.
func TestReplayBoundsChecksCoordinates(t *testing.T) {
	for name, rec := range map[string]record{
		"task beyond the workload": {Op: opDispatch, Job: "j1", Task: 99, Assignment: "a1"},
		"negative task":            {Op: opDispatch, Job: "j1", Task: -1, Assignment: "a1"},
		"site beyond the pool":     {Op: opDispatch, Job: "j1", Task: 0, Site: 7, Assignment: "a1"},
		"negative worker":          {Op: opDispatch, Job: "j1", Task: 0, Worker: -1, Assignment: "a1"},
	} {
		t.Run(name, func(t *testing.T) {
			// A standby's state: shells, no scheduler to catch it first.
			s := standbyState(t, Topology{Sites: 2, WorkersPerSite: 2, CapacityFiles: 8})
			w := &workload.Workload{Name: "w", NumFiles: 2, Tasks: []workload.Task{{ID: 0, Files: []workload.FileID{0}}}}
			submit := record{Op: opSubmit, Ts: 1, Job: "j1", Algorithm: "workqueue", Weight: 1, Workload: w}
			if err := s.applyFrame(1, submit.appendTo(nil)); err != nil {
				t.Fatal(err)
			}
			if err := s.applyFrame(2, rec.appendTo(nil)); err == nil {
				t.Fatal("applied")
			}
		})
	}
}
