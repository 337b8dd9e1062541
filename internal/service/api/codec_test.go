package api_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand/v2"
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

func TestJSONSupportsEveryMessage(t *testing.T) {
	for _, m := range append(messages(), &api.ErrorResponse{}) {
		if !api.JSON.Supports(m) {
			t.Errorf("JSON does not support %T", m)
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
		{[]byte{'G', 3, 5, 0x82, 0x00}, []byte{'G', 3, 5, 0x02}, &api.PullRequest{}},
		{[]byte{'G', 3, 6, 1, 1, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0, 0},
			[]byte{'G', 3, 6, 1, 1, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0}, &api.PullResponse{}},
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

	// Varints the sizing pass steps over and the reading pass rejects: one
	// padded with zero bytes, in the two-byte form it reads inline and in
	// longer ones, and one of eleven bytes.
	short := api.EncodeWorkload(&workload.Workload{Name: "x", NumFiles: 9, Tasks: []workload.Task{{ID: 0, Files: []workload.FileID{5}}}})
	if last := short[len(short)-1]; last != 0x0a { // zigzag(5)
		t.Fatalf("the encoding ends in %#x, not in the file id", last)
	}
	for _, long := range [][]byte{{0x8a, 0x00}, {0x8a, 0x80, 0x00}, {0x8a, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}} {
		if _, err := api.DecodeWorkload(append(short[:len(short)-1:len(short)-1], long...)); err == nil {
			t.Fatalf("the file id coded as %x decoded", long)
		}
	}
}

// fileLists are the file lists the coding must carry, each with the bytes it
// codes to: the differences between neighbours, the first from 0.
var fileLists = []struct {
	name  string
	files []workload.FileID
	bytes int
}{
	{"empty", nil, 0},
	{"one run", []workload.FileID{100, 101, 102, 103}, 2 + 3},
	{"unsorted", []workload.FileID{9, 2, 7, 0}, 4},
	{"duplicates", []workload.FileID{4, 4, 4, 3, 3}, 5},
	// Runs of adjacent ids with jumps between them, across eight-byte words:
	// the shape of a Coadd task's list.
	{"runs", []workload.FileID{5, 6, 7, 8, 9, 10, 11, 2867, 2868, 2869, 2870, 2871, 2872, 2873, 2874, 2875,
		25501, 25502, 25503, 25504, 25505, 25506, 25507, 25508, 25509, 31098, 31099}, 1 + 6 + 2 + 8 + 3 + 8 + 2 + 1},
	// Differences an int32 cannot hold, between ids it can.
	{"int32 ends", []workload.FileID{math.MinInt32, math.MaxInt32, math.MinInt32, math.MinInt32 + 1, math.MaxInt32 - 1, math.MaxInt32}, 5 + 5 + 5 + 1 + 5 + 1},
	{"int32 ends, word-long runs", []workload.FileID{math.MaxInt32 - 9, math.MaxInt32 - 8, math.MaxInt32 - 7, math.MaxInt32 - 6, math.MaxInt32 - 5,
		math.MaxInt32 - 4, math.MaxInt32 - 3, math.MaxInt32 - 2, math.MaxInt32 - 1, math.MaxInt32,
		math.MinInt32, math.MinInt32 + 1, math.MinInt32 + 2, math.MinInt32 + 3, math.MinInt32 + 4, math.MinInt32 + 5, math.MinInt32 + 6,
		math.MinInt32 + 7, math.MinInt32 + 8}, 5 + 9 + 5 + 8},
}

// TestFileListCoding: every list of fileLists codes to the bytes it should,
// alone and after another task's list, and decodes to itself — through the
// stored workload and through a lease — with every cut of it refused.
func TestFileListCoding(t *testing.T) {
	for _, tc := range fileLists {
		t.Run(tc.name, func(t *testing.T) {
			w := &workload.Workload{Name: "w", NumFiles: 1, Tasks: []workload.Task{{ID: 0}, {ID: 1, Files: tc.files}}}
			w.Tasks[0].Files = tc.files
			data := api.EncodeWorkload(w)
			empty := api.EncodeWorkload(&workload.Workload{Name: "w", NumFiles: 1, Tasks: []workload.Task{{ID: 0}, {ID: 1}}})
			if got := (len(data) - len(empty)) / 2; got != tc.bytes {
				t.Errorf("the list codes to %d bytes, want %d", got, tc.bytes)
			}
			got, err := api.DecodeWorkload(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("decodes to %v, want %v", got.Tasks, w.Tasks)
			}
			for n := range data {
				if _, err := api.DecodeWorkload(data[:n:n]); err == nil {
					t.Fatalf("the first %d of %d bytes decoded", n, len(data))
				}
			}
			lease := &api.PullResponse{Status: api.StatusAssigned, Assignment: &api.Assignment{ID: "a", JobID: "j", Task: w.Tasks[1]}}
			msg, err := api.Binary.Marshal(lease)
			if err != nil {
				t.Fatal(err)
			}
			var back api.PullResponse
			if err := api.Binary.Unmarshal(msg, &back); err != nil || !reflect.DeepEqual(&back, lease) {
				t.Fatalf("lease decodes to %+v, %v", back.Assignment, err)
			}
		})
	}
}

// TestFileListRefusesIdsBeyondInt32: a difference that takes the running
// sum out of int32 is refused, whether the decoder reads it on its own or
// in a word of one-byte differences, above MaxInt32 or below MinInt32.
func TestFileListRefusesIdsBeyondInt32(t *testing.T) {
	run := func(first workload.FileID, step int) []workload.FileID {
		files := []workload.FileID{first}
		for range 8 {
			files = append(files, files[len(files)-1]+workload.FileID(step))
		}
		return files
	}
	for _, tc := range []struct {
		name       string
		files      []workload.FileID
		last, over byte // the list's last byte, and the one that takes it out
	}{
		{"alone", []workload.FileID{math.MaxInt32, math.MaxInt32 - 1}, 0x01, 0x02}, // -1 → +1
		{"in a word, up", run(math.MaxInt32-8, 1), 0x02, 0x04},                     // +1 → +2
		{"in a word, down", run(math.MinInt32+8, -1), 0x01, 0x03},                  // -1 → -2
	} {
		data := api.EncodeWorkload(&workload.Workload{Name: "w", Tasks: []workload.Task{{Files: tc.files}}})
		if _, err := api.DecodeWorkload(data); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if data[len(data)-1] != tc.last {
			t.Fatalf("%s: the encoding ends in %#x, not in the last difference", tc.name, data[len(data)-1])
		}
		data[len(data)-1] = tc.over
		if w, err := api.DecodeWorkload(data); err == nil {
			t.Fatalf("%s: decoded to %v", tc.name, w.Tasks[0].Files)
		}
	}
}

// TestWorkloadDecodeAlignments: the sizing pass and the word-wide reading
// pass meet lists at every offset in a word, beside ids and differences of
// every length from one byte to five.
func TestWorkloadDecodeAlignments(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 4))
	for range 500 {
		w := &workload.Workload{Name: "w"}
		for range 1 + rng.IntN(12) {
			task := workload.Task{ID: workload.TaskID(rng.Int32N(1 << (6 + 7*rng.IntN(4))))}
			id := rng.Int64N(1 << 32)
			for range rng.IntN(24) {
				id += rng.Int64N(1<<(1+7*rng.IntN(5))) - 1<<(7*rng.IntN(5))
				task.Files = append(task.Files, workload.FileID(id)) // wrapped into int32
			}
			w.Tasks = append(w.Tasks, task)
		}
		data := api.EncodeWorkload(w)
		got, err := api.DecodeWorkload(data)
		if err != nil {
			t.Fatalf("%v: %v", w.Tasks, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("decodes to %v, want %v", got.Tasks, w.Tasks)
		}
	}
}

// FuzzDecodeWorkload throws arbitrary bytes at the stored-workload decoder,
// which every restart runs on the workload files of its data dir. Nothing
// may panic or allocate beyond a multiple of the input (the fuzzer's own
// limits), and whatever it accepts must re-encode to the very bytes it came
// from and decode to the same value again.
func FuzzDecodeWorkload(f *testing.F) {
	_, golden := readGolden(f)
	f.Add(golden["StoredWorkload"])
	w := &workload.Workload{Name: "lists", NumFiles: 9}
	for i, tc := range fileLists {
		w.Tasks = append(w.Tasks, workload.Task{ID: workload.TaskID(i), Files: tc.files})
	}
	f.Add(api.EncodeWorkload(w))
	f.Add([]byte{'G', 'W', 2, 0, 0, 0})
	f.Add([]byte{'G', 'W', 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := api.DecodeWorkload(data)
		if err != nil {
			return
		}
		re := api.EncodeWorkload(w)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted %x, re-encodes to %x", data, re)
		}
		again, err := api.DecodeWorkload(re)
		if err != nil {
			t.Fatalf("re-encoding of an accepted workload refused: %v", err)
		}
		if !reflect.DeepEqual(again, w) {
			t.Fatalf("re-encoding decodes to\n%+v\nfirst decode\n%+v", again, w)
		}
	})
}

// BenchmarkDecodeWorkload decodes the stored workload of the paper's
// 6,000-task Coadd job, as a restart does once per running job; bytes/task
// is the document's size over its task count.
func BenchmarkDecodeWorkload(b *testing.B) {
	w, err := workload.GenerateCoadd(workload.CoaddSmallConfig(workload.DefaultCoaddSeed))
	if err != nil {
		b.Fatal(err)
	}
	data := api.EncodeWorkload(w)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := api.DecodeWorkload(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data))/float64(len(w.Tasks)), "bytes/task")
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
