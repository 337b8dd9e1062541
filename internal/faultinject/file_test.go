package faultinject_test

import (
	"errors"
	"path/filepath"
	"testing"

	"gridsched/internal/faultinject"
	"gridsched/internal/journal"
)

func openInjectedWriter(t *testing.T, mode journal.Mode) (*journal.Writer, *faultinject.File) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	f, err := faultinject.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := journal.OpenWriterFile(f, mode, 0, 0, 0, &journal.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w, f
}

// TestFsyncFailurePoisonsWriter proves the audit claim the journal's doc
// comment makes: an fsync failure is terminal. The failing WaitDurable
// surfaces the injected error, and every subsequent Append fails too —
// the writer must never ack new records over a log whose durability is
// unknown.
func TestFsyncFailurePoisonsWriter(t *testing.T) {
	w, f := openInjectedWriter(t, journal.SyncAlways)
	lsn, err := w.Append([]byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatalf("healthy fsync: %v", err)
	}

	f.FailSyncs(true)
	lsn, err = w.Append([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("WaitDurable over failing fsync: %v (want ErrInjected)", err)
	}

	// Healing the file must not heal the writer: the poison is permanent.
	f.Restore()
	if _, err := w.Append([]byte("after")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Append after fsync poison: %v (want ErrInjected)", err)
	}
	if _, err := w.Append([]byte("group"), []byte("of two")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("group Append after fsync poison: %v (want ErrInjected)", err)
	}
	if err := w.Sync(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Sync after fsync poison: %v (want ErrInjected)", err)
	}
}

// TestWriteFailurePoisonsWriter: same fail-stop contract for short/failed
// writes. After the first injected write error no further record may be
// accepted, and the log's on-disk prefix stays readable.
func TestWriteFailurePoisonsWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	f, err := faultinject.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := journal.OpenWriterFile(f, journal.SyncAlways, 0, 0, 0, &journal.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	if _, err := w.Append([]byte("keep")); err != nil {
		t.Fatal(err)
	}
	f.FailWritesAfter(0)
	if _, err := w.Append([]byte("lost")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Append over failing write: %v (want ErrInjected)", err)
	}
	f.Restore()
	if _, err := w.Append([]byte("after")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Append after write poison: %v (want ErrInjected)", err)
	}
	if f.Injected() == 0 {
		t.Fatal("no fault was actually injected")
	}
	_ = w.Close()

	// The prefix written before the fault must still be recoverable.
	var got []string
	info, err := journal.ReadLog(path, 0, func(lsn uint64, payload []byte) error {
		got = append(got, string(payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "keep" || info.LastLSN != 1 {
		t.Fatalf("recovered %v (lastLSN %d), want just %q", got, info.LastLSN, "keep")
	}
}

// TestBatchModeFsyncFailurePoisons: in SyncBatch mode the failure happens
// on the background flusher; WaitDurable and later Appends must still
// observe it rather than acking into the void.
func TestBatchModeFsyncFailurePoisons(t *testing.T) {
	w, f := openInjectedWriter(t, journal.SyncBatch)
	f.FailSyncs(true)
	lsn, err := w.Append([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	_ = lsn
	// Force the flush instead of waiting out the batch interval.
	if err := w.Sync(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Sync over failing fsync: %v (want ErrInjected)", err)
	}
	if _, err := w.Append([]byte("after")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Append after batch fsync poison: %v (want ErrInjected)", err)
	}
}

// TestReopenedWriterHoldsLogThroughWrapper: a writer opened over a wrapped
// file that already holds records reads them back through the wrapper's
// ReadAt and hands them out as held frames, as it does over a plain file.
func TestReopenedWriterHoldsLogThroughWrapper(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := journal.OpenWriter(path, journal.SyncAlways, 0, 0, 0, &journal.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"one", "two"} {
		if _, err := w.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := journal.ReadLog(path, 0, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	f, err := faultinject.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err = journal.OpenWriterFile(f, journal.SyncAlways, 0, info.LastLSN, info.ValidSize, &journal.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// The frames are the log past its 8-byte magic.
	if frames, held := w.Frames(0); !held || int64(len(frames)) != info.ValidSize-8 {
		t.Fatalf("reopened writer holds %d bytes (held %v), want the log's %d frame bytes", len(frames), held, info.ValidSize-8)
	}
}
