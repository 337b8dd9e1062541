package service_test

import (
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
)

// legacyRecord is a journal record as binaries up to PR 15 wrote them.
const legacyRecord = `{"op":"quota","ts":1700000000000,"tenant":"gold","quota":3}`

// writeLegacyLog makes dir/wal.log a well-framed log of one JSON record.
func writeLegacyLog(t *testing.T, dir string) {
	t.Helper()
	w, err := journal.OpenWriter(filepath.Join(dir, "wal.log"), journal.SyncNever, 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte(legacyRecord)); err != nil {
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
// it names the format and says how such a data dir is brought forward.
func wantLegacyRefusal(t *testing.T, err error, format string) {
	t.Helper()
	if err == nil {
		t.Fatalf("a %s was accepted", format)
	}
	for _, want := range []string{format, "older than PR 16", "PR 17 binary", "first checkpoint rewrites it"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal does not say %q: %v", want, err)
		}
	}
}

// TestLegacyFormatsRefused: the formats whose readers are gone — the JSON
// journal record (binaries up to PR 15) and the version-1 manifest (up to
// PR 11) — are still outside input. A data dir holding one fails to start,
// as a leader and as a standby, with an error that says what it is and what
// to do, and is left exactly as it was; a standby streamed one halts rather
// than apply it.
func TestLegacyFormatsRefused(t *testing.T) {
	manifest := func(doc string) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name, format string
		write        func(t *testing.T, dir string)
	}{
		{"journal", "JSON journal record", writeLegacyLog},
		{"manifest", "version-1 snapshot", manifest(`{"version":1,"seq":4,"lastLsn":9,"carry":{},"jobs":[]}`)},
		{"manifest/ledger", "version-1 snapshot", manifest(`{"version":1,"seq":4,"lastLsn":9,"carry":{},"jobs":[` +
			`{"id":"j1","name":"a","algorithm":"rest","seed":1,"state":"running","tasks":2,"submittedMs":5,` +
			`"ledger":[{"op":0,"t":1,"s":0,"w":0,"ms":6}]}]}`)},
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

	// A leader still on the old binary, played from a log on disk behind the
	// real replication source: its first frame is JSON.
	t.Run("standby", func(t *testing.T) {
		leaderDir := t.TempDir()
		writeLegacyLog(t, leaderDir)
		stop := make(chan struct{})
		defer close(stop)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var from uint64
			if _, err := fmt.Sscan(r.URL.Query().Get("from"), &from); err != nil || r.URL.Path != replicate.StreamPath {
				http.NotFound(w, r)
				return
			}
			src := &replicate.Source{
				WALPath:   filepath.Join(leaderDir, "wal.log"),
				Snapshot:  func(uint64) (uint64, []byte, error) { return 0, nil, nil },
				LastLSN:   func() uint64 { return 1 },
				Notify:    func() <-chan struct{} { return nil },
				Rotations: func() uint64 { return 0 },
				Done:      stop,
			}
			_ = src.Serve(r.Context(), w, from)
		}))
		defer srv.Close()
		fl, err := service.NewFollower(durableConfig(t.TempDir()), service.FollowerConfig{
			Leader: srv.URL, ReconnectMax: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Close()
		for deadline := time.Now().Add(10 * time.Second); fl.Halted() == nil; time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("standby at lsn %d has not halted on a JSON frame", fl.LastLSN())
			}
		}
		wantLegacyRefusal(t, fl.Halted(), "JSON journal record")
		if !strings.Contains(fl.Halted().Error(), replicate.ErrDiverged.Error()) {
			t.Errorf("halt is not a divergence: %v", fl.Halted())
		}
		// Nothing of the frame reached the replica: the quota it sets would
		// have made "gold" a tenant.
		if body := getBody(t, fl.Handler(), "/v1/tenants"); strings.Contains(string(body), "gold") {
			t.Errorf("the refused frame was applied: /v1/tenants says %s", body)
		}
		if body := scrapeBody(t, fl.Handler()); !strings.Contains(body, "gridsched_replication_halted 1\n") {
			t.Errorf("halted standby's /metrics:\n%s", body)
		}
	})
}
