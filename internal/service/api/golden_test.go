package api_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// update rewrites the golden file from the encoder in the tree. The file
// pins wire format version 3 and the stored-workload document version 2:
// regenerating it is part of a version bump, never of a refactor.
var update = flag.Bool("update", false, "rewrite testdata/wire-v3.golden from the current encoder")

const goldenPath = "testdata/wire-v3.golden"

type goldenEntry struct {
	name string
	v    any // a message pointer, or a *workload.Workload for the stored document
}

// leaseBatchOf is a full lease frame: grants assignments of files files each.
func leaseBatchOf(grants, files int) *api.LeaseBatch {
	m := &api.LeaseBatch{Cancelled: []string{"a903", "a917"}, OpenJobs: 4}
	for i := 0; i < grants; i++ {
		a := api.Assignment{
			ID: fmt.Sprintf("a%d", 1000000+i), JobID: "j7",
			Task:   workload.Task{ID: workload.TaskID(i * 37)},
			Staged: i % 5, LeaseTTLMillis: 15000,
		}
		for f := 0; f < files; f++ {
			a.Task.Files = append(a.Task.Files, workload.FileID((i*131+f*17)%4000))
		}
		m.Assignments = append(m.Assignments, a)
	}
	return m
}

func reportBatchOf(n int) *api.ReportBatchRequest {
	m := &api.ReportBatchRequest{}
	for i := 0; i < n; i++ {
		outcome := api.OutcomeSuccess
		if i%7 == 3 {
			outcome = api.OutcomeFailure
		}
		m.Reports = append(m.Reports, api.ReportItem{AssignmentID: fmt.Sprintf("a%d", 1000000+i), Outcome: outcome})
	}
	return m
}

// reportResultsOf has one stale result, whose JobState is empty.
func reportResultsOf(n int) *api.ReportBatchResponse {
	m := &api.ReportBatchResponse{}
	for i := 0; i < n; i++ {
		r := api.ReportResponse{Accepted: true, JobState: api.JobRunning}
		switch {
		case i == 5:
			r = api.ReportResponse{Stale: true}
		case i == 9:
			r.Cancelled = true
		case i == n-1:
			r.JobState = api.JobCompleted
		}
		m.Results = append(m.Results, r)
	}
	return m
}

func storedWorkload() *workload.Workload {
	w := &workload.Workload{Name: "coadd-slice", NumFiles: 4000}
	for id := 0; id < 40; id++ {
		task := workload.Task{ID: workload.TaskID(id)}
		for f := 0; f < (id*13)%80; f++ { // task 0 has no files
			task.Files = append(task.Files, workload.FileID((id*7+f*131)%4000))
		}
		w.Tasks = append(w.Tasks, task)
	}
	return w
}

// goldenEntries is everything the golden file pins: every exemplar of
// messages(), the hot messages at the size the lease stream sends them, and
// the stored-workload document.
func goldenEntries() []goldenEntry {
	var out []goldenEntry
	for i, m := range messages() {
		out = append(out, goldenEntry{fmt.Sprintf("%02d-%s", i, reflect.TypeOf(m).Elem().Name()), m})
	}
	return append(out,
		goldenEntry{"LeaseBatch-16x79", leaseBatchOf(16, 79)},
		goldenEntry{"ReportBatchRequest-16", reportBatchOf(16)},
		goldenEntry{"ReportBatchResponse-16", reportResultsOf(16)},
		goldenEntry{"StoredWorkload", storedWorkload()},
	)
}

func (e goldenEntry) encode() ([]byte, error) {
	if w, ok := e.v.(*workload.Workload); ok {
		return api.EncodeWorkload(w), nil
	}
	return api.Binary.Marshal(e.v)
}

func (e goldenEntry) decode(data []byte) (any, error) {
	if _, ok := e.v.(*workload.Workload); ok {
		return api.DecodeWorkload(data)
	}
	got := fresh(e.v)
	return got, api.Binary.Unmarshal(data, got)
}

// readGolden returns the pinned bytes by entry name, in file order.
func readGolden(tb testing.TB) (names []string, byName map[string][]byte) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		tb.Fatal(err)
	}
	byName = map[string][]byte{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, hexBytes, ok := strings.Cut(line, " ")
		if !ok {
			tb.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		data, err := hex.DecodeString(hexBytes)
		if err != nil {
			tb.Fatalf("%s: %s: %v", goldenPath, name, err)
		}
		names = append(names, name)
		byName[name] = data
	}
	return names, byName
}

// TestWireBytesUnchanged holds the codec to the pinned bytes of wire format
// 3: each entry encodes to exactly them, and they decode to exactly the value.
func TestWireBytesUnchanged(t *testing.T) {
	entries := goldenEntries()
	if *update {
		var buf bytes.Buffer
		for _, e := range entries {
			data, err := e.encode()
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			fmt.Fprintf(&buf, "%s %s\n", e.name, hex.EncodeToString(data))
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names, golden := readGolden(t)
	if len(names) != len(entries) {
		t.Fatalf("%s pins %d entries, the test builds %d", goldenPath, len(names), len(entries))
	}
	for _, e := range entries {
		want, ok := golden[e.name]
		if !ok {
			t.Errorf("%s: not in %s", e.name, goldenPath)
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
		// Every cut is refused, from a slice with no spare capacity: a decoder
		// that steps past the end of its input must not find bytes there.
		for n := range want {
			if _, err := e.decode(want[:n:n]); err == nil {
				t.Errorf("%s: decode of the first %d of %d bytes succeeded", e.name, n, len(want))
			}
		}
	}
}

// TestHotMessageAllocations pins what the hot messages cost to code: the
// output buffer's growth to encode, the message's own strings and slices to
// decode. A field list that made its coder escape, or boxed a field, shows
// here as one more.
func TestHotMessageAllocations(t *testing.T) {
	for _, tc := range []struct {
		name           string
		v              any
		encode, decode float64
	}{
		{"LeaseBatch 16x1", leaseBatchOf(16, 1), 4, 53},
		{"ReportBatchRequest 16", reportBatchOf(16), 3, 18},
		{"ReportBatchResponse 16", reportResultsOf(16), 2, 2},
	} {
		data, err := api.Binary.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := api.Binary.Marshal(tc.v); err != nil {
				t.Fatal(err)
			}
		}); got > tc.encode {
			t.Errorf("%s: %v allocations to encode, want at most %v", tc.name, got, tc.encode)
		}
		if got := testing.AllocsPerRun(100, func() {
			if err := api.Binary.Unmarshal(data, fresh(tc.v)); err != nil {
				t.Fatal(err)
			}
		}); got > tc.decode {
			t.Errorf("%s: %v allocations to decode, want at most %v", tc.name, got, tc.decode)
		}
	}
}
