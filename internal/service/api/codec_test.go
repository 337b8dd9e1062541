package api_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// site is a helper for RegisterRequest's optional pointer.
func site(v int) *int { return &v }

// messages is one fully-populated exemplar per binary message type; the
// fuzz target and the round-trip test both draw from it so a new message
// added to the codec shows up in every check by editing one table.
func messages() []any {
	return []any{
		&api.SubmitJobRequest{
			Name: "nightly", Algorithm: "combined.2", Seed: -42,
			Workload: &workload.Workload{
				Name: "w", NumFiles: 5,
				Tasks: []workload.Task{
					{ID: 0, Files: []workload.FileID{0, 3, 4}},
					{ID: 1},
				},
			},
			SubmissionID: "abc123", Tenant: "astro", Weight: 7,
		},
		&api.SubmitJobResponse{JobID: "job-1"},
		&api.RegisterRequest{Site: site(3)},
		&api.RegisterRequest{},
		&api.RegisterResponse{WorkerID: "w-1", Site: 2, Worker: 9, LeaseTTLMillis: 15000},
		&api.PullRequest{WaitMillis: 2000},
		&api.PullResponse{
			Status: api.StatusAssigned,
			Assignment: &api.Assignment{
				ID: "a-1", JobID: "job-1",
				Task:   workload.Task{ID: 4, Files: []workload.FileID{1, 2}},
				Staged: 2, LeaseTTLMillis: 15000,
			},
			OpenJobs: 3,
		},
		&api.PullResponse{Status: api.StatusEmpty, OpenJobs: 0},
		&api.HeartbeatRequest{WorkerID: "w-1"},
		&api.HeartbeatResponse{State: api.HeartbeatCancelled},
		&api.ReportRequest{WorkerID: "w-1", Outcome: api.OutcomeFailure},
		&api.ReportResponse{Accepted: true, JobState: api.JobCompleted},
		&api.LeaseBatch{
			Assignments: []api.Assignment{
				{ID: "a-1", JobID: "j", Task: workload.Task{ID: 1, Files: []workload.FileID{7}}, Staged: 1, LeaseTTLMillis: 100},
				{ID: "a-2", JobID: "j", Task: workload.Task{ID: 2}, LeaseTTLMillis: 100},
			},
			Cancelled: []string{"a-0"},
			OpenJobs:  2,
		},
		&api.LeaseBatch{OpenJobs: 0},
		&api.ReportBatchRequest{Reports: []api.ReportItem{
			{AssignmentID: "a-1", Outcome: api.OutcomeSuccess},
			{AssignmentID: "a-2", Outcome: api.OutcomeFailure},
		}},
		&api.ReportBatchResponse{Results: []api.ReportResponse{
			{Accepted: true, JobState: api.JobRunning},
			{Stale: true},
			{Accepted: true, Cancelled: true},
		}},
	}
}

// fresh returns a zero value of the same pointer type as m.
func fresh(m any) any {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface()
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, m := range messages() {
		data, err := api.Binary.Marshal(m)
		if err != nil {
			t.Fatalf("%T: marshal: %v", m, err)
		}
		got := fresh(m)
		if err := api.Binary.Unmarshal(data, got); err != nil {
			t.Fatalf("%T: unmarshal: %v", m, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T: round trip\n got %+v\nwant %+v", m, got, m)
		}
	}
}

func TestBinarySupportsValueAndPointerForms(t *testing.T) {
	if !api.Binary.Supports(api.PullResponse{}) || !api.Binary.Supports(&api.PullResponse{}) {
		t.Fatal("PullResponse not supported")
	}
	if api.Binary.Supports(&api.ErrorResponse{}) {
		t.Fatal("ErrorResponse must stay JSON-only (errors are always human-readable)")
	}
	data, err := api.Binary.Marshal(api.SubmitJobResponse{JobID: "j"})
	if err != nil {
		t.Fatalf("value-form marshal: %v", err)
	}
	var got api.SubmitJobResponse
	if err := api.Binary.Unmarshal(data, &got); err != nil || got.JobID != "j" {
		t.Fatalf("decode of value-form encoding: %+v, %v", got, err)
	}
}

// TestBinaryStrictDecode pins down the codec's no-guess contract: every
// truncation point, trailing garbage, a wrong header, a mismatched message
// type, and out-of-vocabulary enum bytes must all error — never decode to
// a plausible partial message.
func TestBinaryStrictDecode(t *testing.T) {
	for _, m := range messages() {
		data, err := api.Binary.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(data); n++ {
			if err := api.Binary.Unmarshal(data[:n], fresh(m)); err == nil {
				t.Fatalf("%T: decode of %d/%d-byte prefix succeeded", m, n, len(data))
			}
		}
		if err := api.Binary.Unmarshal(append(append([]byte{}, data...), 0), fresh(m)); err == nil {
			t.Fatalf("%T: decode with a trailing byte succeeded", m)
		}
	}

	ok, err := api.Binary.Marshal(&api.PullRequest{WaitMillis: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, ok...)
	bad[0] = 'X' // magic
	if err := api.Binary.Unmarshal(bad, &api.PullRequest{}); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte{}, ok...)
	bad[1] = 99 // version
	if err := api.Binary.Unmarshal(bad, &api.PullRequest{}); err == nil {
		t.Fatal("bad version accepted")
	}
	// A PullRequest encoding decoded as a HeartbeatRequest must be a
	// type-mismatch error, not a garbled heartbeat.
	if err := api.Binary.Unmarshal(ok, &api.HeartbeatRequest{}); err == nil {
		t.Fatal("cross-type decode accepted")
	}

	hb, err := api.Binary.Marshal(&api.HeartbeatResponse{State: api.HeartbeatActive})
	if err != nil {
		t.Fatal(err)
	}
	hb[len(hb)-1] = 200 // out-of-vocabulary enum byte
	if err := api.Binary.Unmarshal(hb, &api.HeartbeatResponse{}); err == nil {
		t.Fatal("unknown heartbeat-state byte accepted")
	}

	// One value, one encoding: a varint padded with a final zero byte, and a
	// task id no int32 holds, are refused; their minimal, in-range twins not.
	for _, tc := range []struct {
		bad, good []byte
		v         any
	}{
		{[]byte{'G', 2, 5, 0x82, 0x00}, []byte{'G', 2, 5, 0x02}, &api.PullRequest{}},
		{[]byte{'G', 2, 6, 1, 1, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0, 0},
			[]byte{'G', 2, 6, 1, 1, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0}, &api.PullResponse{}},
	} {
		if err := api.Binary.Unmarshal(tc.good, fresh(tc.v)); err != nil {
			t.Fatalf("%T %x: %v", tc.v, tc.good, err)
		}
		if err := api.Binary.Unmarshal(tc.bad, fresh(tc.v)); err == nil {
			t.Fatalf("%T %x accepted", tc.v, tc.bad)
		}
	}
}

// TestStoredWorkloadRoundTrip covers the standalone workload document
// gridschedd keeps per running job: it round-trips, shares no header with
// a wire message, and is as strict as the wire decoder.
func TestStoredWorkloadRoundTrip(t *testing.T) {
	w := &workload.Workload{
		Name: "coadd", NumFiles: 9,
		Tasks: []workload.Task{
			{ID: 0, Files: []workload.FileID{0, 3, 8}},
			{ID: 1, Files: []workload.FileID{2}},
		},
	}
	data := api.EncodeWorkload(w)
	got, err := api.DecodeWorkload(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("round trip: got %+v, want %+v", got, w)
	}
	for n := 0; n < len(data); n++ {
		if _, err := api.DecodeWorkload(data[:n]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", n, len(data))
		}
	}
	if _, err := api.DecodeWorkload(append(append([]byte{}, data...), 0)); err == nil {
		t.Fatal("decode with a trailing byte succeeded")
	}
	if err := api.Binary.Unmarshal(data, &api.SubmitJobRequest{}); err == nil {
		t.Fatal("stored workload accepted as a wire message")
	}
	submit, err := api.Binary.Marshal(&api.SubmitJobRequest{Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := api.DecodeWorkload(submit); err == nil {
		t.Fatal("wire message accepted as a stored workload")
	}
}

// TestDecodeWorkloadAllocations: a decoded workload is the Workload, its
// task array and one array every task's Files slices — however many tasks —
// and a task's Files cannot grow into its neighbour's.
func TestDecodeWorkloadAllocations(t *testing.T) {
	w := &workload.Workload{Name: "coadd", NumFiles: 4000}
	for id := 0; id < 600; id++ {
		task := workload.Task{ID: workload.TaskID(id)}
		for f := 0; f < 1+id%80; f++ {
			task.Files = append(task.Files, workload.FileID((id*7+f*131)%4000))
		}
		w.Tasks = append(w.Tasks, task)
	}
	w.Tasks[17].Files = nil // decodes to nil, as before
	data := api.EncodeWorkload(w)
	got, err := api.DecodeWorkload(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatal("round trip changed the workload")
	}
	for i, task := range got.Tasks {
		if cap(task.Files) != len(task.Files) {
			t.Fatalf("task %d: Files has len %d, cap %d", i, len(task.Files), cap(task.Files))
		}
	}
	next := got.Tasks[1].Files[0]
	got.Tasks[0].Files = append(got.Tasks[0].Files, 3999)
	if got.Tasks[1].Files[0] != next {
		t.Fatal("appending to task 0's files overwrote task 1's")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := api.DecodeWorkload(data); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Fatalf("%v allocations to decode a 600-task workload, want at most 4", allocs)
	}

	// A varint the sizing pass steps over and the reading pass rejects.
	short := api.EncodeWorkload(&workload.Workload{Name: "x", NumFiles: 9, Tasks: []workload.Task{{ID: 0, Files: []workload.FileID{5}}}})
	if last := short[len(short)-1]; last != 0x0a { // zigzag(5)
		t.Fatalf("the encoding ends in %#x, not in the file id", last)
	}
	long := append(short[:len(short)-1:len(short)-1], 0x8a, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00)
	if _, err := api.DecodeWorkload(long); err == nil {
		t.Fatal("an eleven-byte varint decoded")
	}
}

func TestBinaryRejectsUnknownEnumOnEncode(t *testing.T) {
	if _, err := api.Binary.Marshal(&api.ReportRequest{WorkerID: "w", Outcome: "maybe"}); err == nil {
		t.Fatal("out-of-vocabulary outcome encoded")
	}
	if _, err := api.Binary.Marshal(&api.PullResponse{Status: "weird"}); err == nil {
		t.Fatal("out-of-vocabulary pull status encoded")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("one"), {}, []byte("three")}
	for _, p := range payloads {
		buf = api.AppendFrame(buf, p)
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range payloads {
		got, err := api.ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %q, want %q", i, got, want)
		}
	}
	if _, err := api.ReadFrame(br); !errors.Is(err, io.EOF) {
		t.Fatalf("clean end: %v, want io.EOF", err)
	}

	// A frame cut mid-payload is ErrUnexpectedEOF, never a clean EOF: the
	// stream consumer uses the distinction to tell shutdown from a drop.
	cut := api.AppendFrame(nil, []byte("payload"))
	br = bufio.NewReader(bytes.NewReader(cut[:len(cut)-2]))
	if _, err := api.ReadFrame(br); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}

	// A corrupt length prefix must be bounded, not allocated.
	huge := make([]byte, 0, 16)
	huge = appendUvarintForTest(huge, api.MaxFramePayload+1)
	if _, err := api.ReadFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// appendUvarintForTest mirrors binary.AppendUvarint without importing it
// into the test's critical assertions.
func appendUvarintForTest(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func TestContentTypeNegotiationHelpers(t *testing.T) {
	if !api.IsBinary(api.ContentTypeBinary) || !api.IsBinary(api.ContentTypeStreamBinary) {
		t.Fatal("IsBinary misses a binary content type")
	}
	if api.IsBinary(api.ContentTypeJSON) || api.IsBinary("") {
		t.Fatal("IsBinary accepts a JSON content type")
	}
	for _, tc := range []struct {
		accept string
		want   bool
	}{
		{api.ContentTypeBinary, true},
		{"application/json, " + api.ContentTypeBinary, true},
		{api.ContentTypeBinary + ";q=0.9, application/json", true},
		{"application/json", false},
		{"", false},
		{"application/x-gridsched-binary", false}, // near-miss name
	} {
		if got := api.AcceptsBinary(tc.accept); got != tc.want {
			t.Errorf("AcceptsBinary(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
}

// FuzzWireCodec throws arbitrary bytes at the strict decoder (every
// message type) and the frame reader: nothing may panic or over-allocate,
// and anything that does decode must re-encode to the very bytes it came
// from — one value, one encoding: the codec cannot "repair" input into a
// value it would then encode differently — and decode to the same value.
func FuzzWireCodec(f *testing.F) {
	for _, m := range messages() {
		data, err := api.Binary.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(api.AppendFrame(nil, data))
	}
	// The pinned encodings: full-size lease and report frames, and a stored
	// workload (a wire decoder must refuse it whole).
	names, golden := readGolden(f)
	for _, name := range names {
		f.Add(golden[name])
	}
	f.Add([]byte{'G', 1, 200})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range messages() {
			dst := fresh(m)
			if err := api.Binary.Unmarshal(data, dst); err != nil {
				continue
			}
			re, err := api.Binary.Marshal(dst)
			if err != nil {
				t.Fatalf("%T: decoded value failed to re-encode: %v", dst, err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("%T: accepted %x, re-encodes to %x", dst, data, re)
			}
			dst2 := fresh(m)
			if err := api.Binary.Unmarshal(re, dst2); err != nil {
				t.Fatalf("%T: re-encoded bytes failed to decode: %v", dst, err)
			}
			if !reflect.DeepEqual(dst, dst2) {
				t.Fatalf("%T: decode/encode/decode drift:\n first %+v\nsecond %+v", dst, dst, dst2)
			}
		}
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			if _, err := api.ReadFrame(br); err != nil {
				break
			}
		}
	})
}
