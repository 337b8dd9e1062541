package journal_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gridsched/internal/journal"
)

func openTailWriter(t *testing.T) (*journal.Writer, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := journal.OpenWriter(path, journal.SyncNever, 0, 0, 0, &journal.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w, path
}

// TestTailReaderFollowsWriter covers the tail-follow contract: frames
// appear to the reader exactly once, in LSN order, and a drained tail
// reports ErrNoFrame rather than blocking or erroring.
func TestTailReaderFollowsWriter(t *testing.T) {
	w, path := openTailWriter(t)
	for i := 0; i < 5; i++ {
		if _, err := w.Append(fmt.Appendf(nil, "rec-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := journal.OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 5; i++ {
		lsn, payload, err := tr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if lsn != uint64(i+1) || string(payload) != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("frame %d: lsn %d payload %q", i, lsn, payload)
		}
	}
	if _, _, err := tr.Next(); !errors.Is(err, journal.ErrNoFrame) {
		t.Fatalf("drained tail: %v (want ErrNoFrame)", err)
	}
	// New appends become visible to the same reader.
	if _, err := w.Append([]byte("late")); err != nil {
		t.Fatal(err)
	}
	lsn, payload, err := tr.Next()
	if err != nil || lsn != 6 || string(payload) != "late" {
		t.Fatalf("after late append: lsn %d payload %q err %v", lsn, payload, err)
	}
}

// TestTailReaderResumesAfter pins the `after` contract: frames at or
// below the resume point are skipped, not redelivered.
func TestTailReaderResumesAfter(t *testing.T) {
	w, path := openTailWriter(t)
	for i := 0; i < 4; i++ {
		if _, err := w.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := journal.OpenTail(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	lsn, _, err := tr.Next()
	if err != nil || lsn != 3 {
		t.Fatalf("resume after 2: first frame lsn %d err %v", lsn, err)
	}
}

// TestTailReaderDetectsRotation: rotation truncates the log, which must
// surface as ErrRotated (plus a Rotations() bump for in-process
// followers), never as silently re-reading old offsets.
func TestTailReaderDetectsRotation(t *testing.T) {
	w, path := openTailWriter(t)
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := journal.OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := tr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	epoch := w.Rotations()
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if w.Rotations() != epoch+1 {
		t.Fatalf("Rotations() = %d, want %d", w.Rotations(), epoch+1)
	}
	if _, _, err := tr.Next(); !errors.Is(err, journal.ErrRotated) {
		t.Fatalf("after rotation: %v (want ErrRotated)", err)
	}
}

// TestTailReaderIgnoresTornTail: a torn (partial or corrupt) frame at the
// end of the log is indistinguishable from a frame still being written,
// so the reader reports ErrNoFrame and re-reads the same offset later.
func TestTailReaderIgnoresTornTail(t *testing.T) {
	w, path := openTailWriter(t)
	if _, err := w.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: header bytes only, then garbage CRC.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tr, err := journal.OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if lsn, _, err := tr.Next(); err != nil || lsn != 1 {
		t.Fatalf("good frame: lsn %d err %v", lsn, err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := tr.Next(); !errors.Is(err, journal.ErrNoFrame) {
			t.Fatalf("torn tail read %d: %v (want ErrNoFrame)", i, err)
		}
	}
}

// TestAppendNotifyWakesWaiters: AppendNotify's channel closes on append,
// rotation, and shutdown — everything a parked tail follower must wake
// for.
func TestAppendNotifyWakesWaiters(t *testing.T) {
	w, _ := openTailWriter(t)
	wait := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("notify channel never closed after %s", what)
		}
	}
	ch := w.AppendNotify()
	if _, err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	wait(ch, "append")
	ch = w.AppendNotify()
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	wait(ch, "rotate")
	ch = w.AppendNotify()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wait(ch, "close")
}

// TestAppendWithoutFollowerAllocatesNothing: the notify channel is only
// replaced once somebody took it, so a log nobody tails appends without
// allocating — and one that is tailed still wakes every time.
func TestAppendWithoutFollowerAllocatesNothing(t *testing.T) {
	w, _ := openTailWriter(t)
	payload := []byte("a record of ordinary size, nobody listening")
	if _, err := w.Append(payload); err != nil { // sizes the frame buffer
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append allocates %v times per record with no follower", n)
	}
	for i := 0; i < 3; i++ {
		ch := w.AppendNotify()
		if again := w.AppendNotify(); again != ch {
			t.Fatal("two subscriptions between appends got different channels")
		}
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ch:
		default:
			t.Fatalf("round %d: append did not close the channel a follower held", i)
		}
	}
}
