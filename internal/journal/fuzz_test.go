package journal_test

import (
	"bytes"
	"fmt"
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
// adversarial log converges to a healthy one. The writer opened over it
// holds the recovered prefix byte for byte, for a standby to be served
// from, whenever its LSNs run one by one as this package writes them. CI
// runs this as a 30-second smoke (-fuzztime); longer local runs just go
// deeper.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("GSWAL001"))
	f.Add([]byte("GSWAL001\x00\x00\x00"))
	f.Add([]byte("not a log at all"))
	fuzzSeedLog(f, []string{`{"op":"submit"}`, `{"op":"dispatch","task":3}`}, nil)
	fuzzSeedLog(f, []string{"x"}, []byte{0x55, 0xAA, 0x00, 0x01, 0x02})
	fuzzSeedLog(f, []string{""}, []byte{0xFF, 0xFF, 0xFF, 0x7F})
	// A whole frame whose LSN does not rise: ReadLog must stop before it.
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
		if len(lsns) > 0 && lsns[len(lsns)-1]-lsns[0] == uint64(len(lsns)-1) {
			if frames, held := w.Frames(lsns[0] - 1); !held || !bytes.Equal(frames, data[len("GSWAL001"):info.ValidSize]) {
				t.Fatalf("writer opened over %d records holds %x (held %v), not the log's prefix", len(lsns), frames, held)
			}
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

// FuzzWriterFrames drives a Writer through random Append groups and Rotate
// calls, then asks it for the frames after every LSN it assigned. What it
// hands out must run consecutively from after+1 and decode to the payloads
// appended; the current interval must be byte for byte what ReadLog reads
// from the file; and "not held" must come exactly when after is older than
// the interval before the last rotation. Each op byte is a rotation (0xff)
// or a group of op%4+1 payloads of op/4 bytes each.
func FuzzWriterFrames(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 2, 0xff, 1})
	f.Add([]byte{0xff, 0xff, 5, 0xff, 0, 7, 0xff, 0xff, 9})
	f.Add([]byte{200, 0xff, 13, 0xff, 0xff, 62})

	f.Fuzz(func(t *testing.T, ops []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		w, err := journal.OpenWriter(path, journal.SyncNever, 0, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var want []string         // "lsn:payload" of LSN i+1
		rotated := []uint64{0, 0} // the last LSN before each rotation
		for _, op := range ops {
			if op == 0xff {
				if err := w.Rotate(); err != nil {
					t.Fatal(err)
				}
				rotated = append(rotated, uint64(len(want)))
				continue
			}
			group := make([][]byte, op%4+1)
			for k := range group {
				group[k] = bytes.Repeat([]byte{'a' + byte(k)}, int(op/4))
				want = append(want, fmt.Sprintf("%d:%s", len(want)+1, group[k]))
			}
			if _, err := w.Append(group...); err != nil {
				t.Fatal(err)
			}
		}
		prev, cur := rotated[len(rotated)-2], rotated[len(rotated)-1]
		for after := uint64(0); after <= uint64(len(want)); after++ {
			got, _, held := streamed(t, w, after)
			if held != (after >= prev) {
				t.Fatalf("after %d, rotations after %v: held %v", after, rotated[2:], held)
			}
			if held && fmt.Sprint(got) != fmt.Sprint(want[after:]) {
				t.Fatalf("after %d: %v, appended %v", after, got, want[after:])
			}
		}
		var file []string
		if _, err := journal.ReadLog(path, 0, func(lsn uint64, payload []byte) error {
			file = append(file, fmt.Sprintf("%d:%s", lsn, payload))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		got, raw, _ := streamed(t, w, cur)
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(file) || !bytes.Equal(raw, disk[len("GSWAL001"):]) {
			t.Fatalf("current interval %v, the file holds %v", got, file)
		}
	})
}
