package service_test

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gridsched/internal/journal"
	"gridsched/internal/replicate"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// legacyRecord is a journal record as binaries up to PR 15 wrote them.
const legacyRecord = `{"op":"quota","ts":1700000000000,"tenant":"gold","quota":3}`

// v2LeaseRecord is a dispatch as disk format 2 journaled it: tag 2, the
// 21-byte packed ledger event (op, task, site, worker, ts; little-endian),
// then the job and assignment ids.
func v2LeaseRecord() []byte {
	b := []byte{2, 0} // tag, ledger op "dispatch"
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint64(b, 1700000000000)
	return append(b, 2, 'j', '1', 2, 'a', '2')
}

// v2SubmitRecord is a submit as disk format 2 journaled it: tag 1, ts, seed,
// deadline and weight as fixed-width integers, five strings, the required
// tags, and the workload as a stored document to the end. Applied, it would
// make job j1 of tenant gold.
func v2SubmitRecord() []byte {
	b := []byte{1}
	for _, v := range []uint64{1700000000000, 7, 0, 1} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, s := range []string{"j1", "sweep", "workqueue", "", "gold"} { // job, name, algorithm, submission, tenant
		b = append(append(b, byte(len(s))), s...)
	}
	b = append(b, 0) // no required tags
	return append(b, api.EncodeWorkload(smallWorkload(2))...)
}

// v2Manifest is a manifest as disk format 2 wrote it, and the JSON
// catch-up document a leader of that format streams: the same document.
const v2Manifest = `{"version":2,"seq":4,"lastLsn":9,"carry":{"jobs":1},` +
	`"tenants":[{"name":"gold","quota":3}],"jobs":[{"id":"j1","name":"a","algorithm":"rest","seed":1,` +
	`"state":"running","tasks":2,"submittedMs":5,"tenant":"gold","weight":1,` +
	`"ledger":"AAAAAAAAAAAAAAAAAAAAAAAAAAAA","draws":0}]}`

// v3Work is a workload whose file lists disk formats 3 and 4 code apart.
func v3Work() *workload.Workload {
	return &workload.Workload{Name: "v3", NumFiles: 16, Tasks: []workload.Task{
		{ID: 0, Files: []workload.FileID{3, 4, 5}},
		{ID: 1, Files: []workload.FileID{9, 2}},
	}}
}

// v3Workload writes w's fields as disk format 3 coded them: as format 4
// does, but with every file id a varint of its own where format 4 codes the
// differences.
func v3Workload(c *api.Coder, w *workload.Workload) {
	c.Str(&w.Name)
	api.Num(c, &w.NumFiles)
	for i := range api.Sized(c, &w.Tasks) {
		t := &w.Tasks[i]
		api.Num(c, &t.ID)
		for j := range api.Sized(c, &t.Files) {
			api.Num(c, &t.Files[j])
		}
	}
}

// v3Submit appends, as disk format 3 journaled it, the submit of job j1 of
// tenant gold: tag 0x11, then its fields, w (nil: none) coded by v3Workload.
func v3Submit(dst []byte, w *workload.Workload) []byte {
	c := api.NewEncoder(append(dst, 0x11))
	ts, seed, weight, deadline := int64(1700000000000), int64(7), 1, int64(0)
	job, name, algorithm, submission, tenant := "j1", "sweep", "workqueue", "", "gold"
	api.Num(&c, &ts)
	for _, s := range []*string{&job, &name, &algorithm} {
		c.Str(s)
	}
	api.Num(&c, &seed)
	c.Str(&submission)
	c.Str(&tenant)
	api.Num(&c, &weight)
	c.Strs(new([]string))
	api.Num(&c, &deadline)
	if api.Opt(&c, &w) != nil {
		v3Workload(&c, w)
	}
	out, _ := c.Out()
	return out
}

// v3Manifest is a manifest as disk format 3 wrote it, header 'G' 'M' 3:
// tenant gold with quota 3, and job j1, running, whose submit record is
// v3Submit's. With its workload inline it is the catch-up document a
// leader of that format streams.
func v3Manifest(w *workload.Workload) []byte {
	c := api.NewEncoder([]byte{'G', 'M', 3})
	// seq, partition index and count, lastLsn, the eight carried counters,
	// vtime.
	for _, v := range []int64{4, 0, 1, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0} {
		api.Num(&c, &v)
	}
	tenants, quota, dispatches, state := []string{"gold"}, 3, 0, api.JobRunning
	for i := range api.Sized(&c, &tenants) {
		c.Str(&tenants[i])
		api.Num(&c, &quota)
		api.Num(&c, &dispatches)
	}
	out, _ := c.Out()
	c = api.NewEncoder(v3Submit(append(out, 1), w)) // one job
	c.Str(&state)
	// tasks, finished, fair, an empty ledger, no draws, the seven summary
	// counters; then no worker slots.
	for _, v := range []int64{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0} {
		api.Num(&c, &v)
	}
	out, _ = c.Out()
	return out
}

// v3StoredWorkload is a workload file as disk format 3 wrote it.
func v3StoredWorkload() []byte {
	c := api.NewEncoder([]byte{'G', 'W', 1})
	v3Workload(&c, v3Work())
	out, _ := c.Out()
	return out
}

// writeLog makes dir/wal.log a well-framed log of one record.
func writeLog(t *testing.T, dir string, payload []byte) {
	t.Helper()
	w, err := journal.OpenWriter(filepath.Join(dir, "wal.log"), journal.SyncNever, 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// dirContents reads every file of dir.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, name := range dirNames(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(data)
	}
	return out
}

// wantLegacyRefusal checks err is the refusal of an older binary's format:
// it names the format and says what to do with such a data dir.
func wantLegacyRefusal(t *testing.T, err error, format string) {
	t.Helper()
	if err == nil {
		t.Fatalf("a %s was accepted", format)
	}
	for _, want := range []string{format, "older than disk format 4", "finish the data dir's jobs with the binary that wrote it", "empty -data-dir"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal does not say %q: %v", want, err)
		}
	}
}

// TestLegacyFormatsRefused: the formats whose readers are gone — the JSON
// journal record of the oldest binaries, disk format 2's records, the JSON
// manifest of formats 1 and 2, and disk format 3's records, manifest and
// workload files — are still outside input. A data dir holding one fails to
// start, as a leader and as a standby, with an error that says what it is
// and what to do, and is left exactly as it was. A standby streamed one by
// an older leader — a frame, a catch-up document — halts rather than apply
// it, with nothing of it in its data dir.
func TestLegacyFormatsRefused(t *testing.T) {
	manifest := func(doc string) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	journalOf := func(payload []byte) func(*testing.T, string) {
		return func(t *testing.T, dir string) { writeLog(t, dir, payload) }
	}
	for _, tc := range []struct {
		name, format string
		write        func(t *testing.T, dir string)
	}{
		{"journal", "JSON journal record", journalOf([]byte(legacyRecord))},
		{"journal/v2 lease", "disk format 2 journal record", journalOf(v2LeaseRecord())},
		{"journal/v2 submit", "disk format 2 journal record", journalOf(v2SubmitRecord())},
		{"manifest", "JSON checkpoint document", manifest(`{"version":1,"seq":4,"lastLsn":9,"carry":{},"jobs":[]}`)},
		{"manifest/ledger", "JSON checkpoint document", manifest(`{"version":1,"seq":4,"lastLsn":9,"carry":{},"jobs":[` +
			`{"id":"j1","name":"a","algorithm":"rest","seed":1,"state":"running","tasks":2,"submittedMs":5,` +
			`"ledger":[{"op":0,"t":1,"s":0,"w":0,"ms":6}]}]}`)},
		{"manifest/v2", "JSON checkpoint document", manifest(v2Manifest)},
		{"journal/v3 submit", "disk format 3 journal record", journalOf(v3Submit(nil, v3Work()))},
		{"manifest/v3", "disk format 3 checkpoint document", manifest(string(v3Manifest(nil)))},
		// A format 4 checkpoint whose running job's workload file a format 3
		// binary wrote.
		{"workload/v3", "version 1 stored workload", func(t *testing.T, dir string) {
			s, err := service.New(durableConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.SubmitJob(api.SubmitJobRequest{Name: "sweep", Algorithm: "workqueue", Workload: v3Work()}); err != nil {
				t.Fatal(err)
			}
			s.Close() // checkpoints: the manifest and workload-j1.bin
			if err := os.WriteFile(filepath.Join(dir, "workload-j1.bin"), v3StoredWorkload(), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.write(t, dir)
			before := dirContents(t, dir)
			s, err := service.New(durableConfig(dir))
			if err == nil {
				s.Close()
			}
			wantLegacyRefusal(t, err, tc.format)
			fl, err := service.NewFollower(durableConfig(dir), service.FollowerConfig{Leader: "http://127.0.0.1:1"})
			if err == nil {
				fl.Close()
			}
			wantLegacyRefusal(t, err, tc.format)
			if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
				t.Errorf("the refused data dir changed: holds %v, held %v", dirNames(t, dir), before)
			}
		})
	}

	// A leader still on an older binary, played behind the real replication
	// source: from a log on disk, its first frame; or, when it has a
	// checkpoint, the catch-up document it sends first.
	for _, tc := range []struct {
		name, format string
		frame        []byte // the leader's one journal record
		catchUp      string // its catch-up document, "" for none
	}{
		{"standby", "JSON journal record", []byte(legacyRecord), ""},
		{"standby/v2 frame", "disk format 2 journal record", v2SubmitRecord(), ""},
		{"standby/v2 catch-up", "JSON checkpoint document", nil, v2Manifest},
		{"standby/v3 frame", "disk format 3 journal record", v3Submit(nil, v3Work()), ""},
		{"standby/v3 catch-up", "disk format 3 checkpoint document", nil, string(v3Manifest(v3Work()))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leaderDir := t.TempDir()
			walPath := filepath.Join(leaderDir, "wal.log")
			if tc.frame != nil {
				writeLog(t, leaderDir, tc.frame)
			}
			info, err := journal.ReadLog(walPath, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			leaderLog, err := journal.OpenWriter(walPath, journal.SyncNever, 0, info.LastLSN, info.ValidSize, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer leaderLog.Close()
			stop := make(chan struct{})
			defer close(stop)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var from uint64
				if _, err := fmt.Sscan(r.URL.Query().Get("from"), &from); err != nil || r.URL.Path != replicate.StreamPath {
					http.NotFound(w, r)
					return
				}
				src := &replicate.Source{
					Log: leaderLog,
					Snapshot: func(next uint64) (uint64, []byte, error) {
						if tc.catchUp == "" || next > 9 {
							return 0, nil, nil
						}
						return 9, []byte(tc.catchUp), nil
					},
					Done: stop,
				}
				_ = src.Serve(r.Context(), w, from)
			}))
			defer srv.Close()
			fdir := t.TempDir()
			fl, err := service.NewFollower(durableConfig(fdir), service.FollowerConfig{Leader: srv.URL})
			if err != nil {
				t.Fatal(err)
			}
			defer fl.Close()
			for deadline := time.Now().Add(10 * time.Second); fl.Halted() == nil; time.Sleep(2 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("standby at lsn %d has not halted on the %s", fl.LastLSN(), tc.format)
				}
			}
			wantLegacyRefusal(t, fl.Halted(), tc.format)
			if !strings.Contains(fl.Halted().Error(), replicate.ErrDiverged.Error()) {
				t.Errorf("halt is not a divergence: %v", fl.Halted())
			}
			// Nothing of it reached the replica or the data dir: applied, it
			// would have made "gold" a tenant, and the dir is the empty log a
			// fresh standby opens.
			if body := getBody(t, fl.Handler(), "/v1/tenants"); strings.Contains(string(body), "gold") {
				t.Errorf("the refused %s was applied: /v1/tenants says %s", tc.format, body)
			}
			if got := dirNames(t, fdir); !reflect.DeepEqual(got, []string{"wal.log"}) || fileSize(t, filepath.Join(fdir, "wal.log")) != 8 {
				t.Errorf("the refused %s reached the data dir: it holds %v", tc.format, got)
			}
			if body := scrapeBody(t, fl.Handler()); !strings.Contains(body, "gridsched_replication_halted 1\n") {
				t.Errorf("halted standby's /metrics:\n%s", body)
			}
		})
	}
}
