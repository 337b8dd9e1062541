package journal_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gridsched/internal/journal"
)

// fuzzSeedLog builds a small valid log (with an optional garbage tail) to
// seed the corpus with structurally interesting inputs.
func fuzzSeedLog(f *testing.F, payloads []string, tail []byte) {
	f.Helper()
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.log")
	w, err := journal.OpenWriter(path, journal.SyncNever, 0, 0, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := w.Append([]byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(data, tail...))
}

// FuzzReadFrame throws arbitrary bytes at the WAL frame decoder and checks
// the recovery invariants ReadLog promises no matter the input: no panic,
// a ValidSize that never exceeds the file, a validated prefix that
// re-reads to the identical record sequence, and a prefix OpenWriter can
// truncate to and keep appending after — i.e. any torn, bit-flipped, or
// adversarial log converges to a healthy one. The tail reader, over the
// same bytes, must yield exactly ReadLog's records and then ErrNoFrame: the
// two share one frame decoder. CI runs this as a 30-second smoke
// (-fuzztime); longer local runs just go deeper.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("GSWAL001"))
	f.Add([]byte("GSWAL001\x00\x00\x00"))
	f.Add([]byte("not a log at all"))
	fuzzSeedLog(f, []string{`{"op":"submit"}`, `{"op":"dispatch","task":3}`}, nil)
	fuzzSeedLog(f, []string{"x"}, []byte{0x55, 0xAA, 0x00, 0x01, 0x02})
	fuzzSeedLog(f, []string{""}, []byte{0xFF, 0xFF, 0xFF, 0x7F})
	// A whole frame whose LSN does not rise: both readers must stop before it.
	fuzzSeedLog(f, []string{"a", "b"}, journal.AppendFrame(nil, 2, []byte("stale")))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var lsns []uint64
		var payloads [][]byte
		info, err := journal.ReadLog(path, 0, func(lsn uint64, payload []byte) error {
			lsns = append(lsns, lsn)
			payloads = append(payloads, bytes.Clone(payload))
			return nil
		})
		if err != nil {
			return // rejected (bad magic): a legitimate outcome, not a log
		}
		if info.ValidSize > int64(len(data)) {
			t.Fatalf("ValidSize %d beyond %d input bytes", info.ValidSize, len(data))
		}
		if info.Records != len(lsns) {
			t.Fatalf("Records %d but callback saw %d", info.Records, len(lsns))
		}
		for i := 1; i < len(lsns); i++ {
			if lsns[i] <= lsns[i-1] {
				t.Fatalf("non-monotonic LSNs delivered: %v", lsns)
			}
		}
		if len(lsns) > 0 && info.LastLSN != lsns[len(lsns)-1] {
			t.Fatalf("LastLSN %d, last delivered %d", info.LastLSN, lsns[len(lsns)-1])
		}

		// The tail reader decodes with the same frame reader: over the same
		// bytes it yields ReadLog's records, then reports the end of what is
		// visible. (A torn magic reads as a log rotated below the reader.)
		if info.ValidSize >= int64(len("GSWAL001")) {
			tr, err := journal.OpenTail(path, 0)
			if err != nil {
				t.Fatalf("OpenTail over a log ReadLog accepted: %v", err)
			}
			for i, want := range lsns {
				lsn, payload, err := tr.Next()
				if err != nil || lsn != want || !bytes.Equal(payload, payloads[i]) {
					t.Fatalf("tail frame %d: lsn %d %q, %v; ReadLog had lsn %d %q", i, lsn, payload, err, want, payloads[i])
				}
			}
			if _, _, err := tr.Next(); !errors.Is(err, journal.ErrNoFrame) {
				t.Fatalf("tail past ValidSize %d: %v (want ErrNoFrame)", info.ValidSize, err)
			}
			tr.Close()
		}

		// The validated prefix must re-read to the identical sequence.
		prefix := filepath.Join(dir, "prefix.log")
		if err := os.WriteFile(prefix, data[:info.ValidSize], 0o644); err != nil {
			t.Fatal(err)
		}
		reread, err := journal.ReadLog(prefix, 0, nil)
		if err != nil {
			t.Fatalf("validated prefix rejected on re-read: %v", err)
		}
		if reread.Records != info.Records || reread.LastLSN != info.LastLSN || reread.ValidSize != info.ValidSize {
			t.Fatalf("prefix re-read diverged: %+v vs %+v", reread, info)
		}

		// OpenWriter must accept the recovered (lastLSN, validSize) pair,
		// truncate the garbage, and keep the LSN sequence appendable.
		w, err := journal.OpenWriter(path, journal.SyncNever, 0, info.LastLSN, info.ValidSize, nil)
		if err != nil {
			t.Fatalf("OpenWriter over recovered prefix: %v", err)
		}
		lsn, err := w.Append([]byte("post-recovery"))
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if lsn != info.LastLSN+1 {
			t.Fatalf("appended LSN %d, want %d", lsn, info.LastLSN+1)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		final, err := journal.ReadLog(path, 0, nil)
		if err != nil || final.Records != info.Records+1 || final.Torn {
			t.Fatalf("post-recovery log unhealthy: %+v, %v", final, err)
		}
	})
}
