package replicate_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"gridsched/internal/journal"
	"gridsched/internal/replicate"
)

// fuzzHandler records what Replay applies and re-asserts, independently
// of Replay's own checks, the invariants the follower's journal depends
// on: frames arrive exactly in sequence and snapshots never rewind.
type fuzzHandler struct {
	t    *testing.T
	last uint64
}

func (h *fuzzHandler) ApplyFrame(lsn uint64, payload []byte) error {
	if lsn != h.last+1 {
		h.t.Fatalf("ApplyFrame lsn %d after %d", lsn, h.last)
	}
	h.last = lsn
	return nil
}

func (h *fuzzHandler) ApplySnapshot(lsn uint64, data []byte) error {
	if lsn < h.last {
		h.t.Fatalf("ApplySnapshot lsn %d rewinds %d", lsn, h.last)
	}
	h.last = lsn
	return nil
}

func (h *fuzzHandler) Heartbeat(lastLSN uint64) {
	if lastLSN < h.last {
		h.t.Fatalf("heartbeat lsn %d behind applied %d passed through", lastLSN, h.last)
	}
}

// fuzzSeedStream encodes a valid message sequence (with an optional raw
// tail), replayed from position from, to seed the corpus with structurally
// interesting inputs.
func fuzzSeedStream(f *testing.F, from uint64, build func(e *replicate.Encoder) error, tail []byte) {
	f.Helper()
	var buf bytes.Buffer
	e := replicate.NewEncoder(&buf)
	if err := build(e); err != nil {
		f.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(append(buf.Bytes(), tail...), from)
}

// FuzzReplicationStream is the streaming-reader sibling of
// journal.FuzzReadFrame: arbitrary bytes as a replication stream, from an
// arbitrary resume position. The invariants under any input: no panic;
// the handler only ever sees contiguous frames and non-rewinding
// snapshots (the follower halts cleanly instead of writing a divergent
// log); and the error taxonomy is closed — a stream either ends cleanly
// (nil), diverges (ErrDiverged), or tears mid-message
// (io.ErrUnexpectedEOF).
func FuzzReplicationStream(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{replicate.TypeFrame}, uint64(0))
	f.Add([]byte(`{"type":"frame","lsn":1,"size":1}`+"\nx"), uint64(0)) // the older format
	fuzzSeedStream(f, 3, func(e *replicate.Encoder) error { return e.Frame(9, []byte("x")) }, nil)
	fuzzSeedStream(f, 7, func(e *replicate.Encoder) error { return e.Heartbeat(0) }, nil)
	fuzzSeedStream(f, 5, func(e *replicate.Encoder) error { return e.Snapshot(2, []byte("{}")) }, nil)
	// Clean sequence: heartbeat, snapshot, contiguous frames.
	fuzzSeedStream(f, 0, func(e *replicate.Encoder) error {
		if err := e.Heartbeat(4); err != nil {
			return err
		}
		if err := e.Snapshot(4, []byte("a catch-up document")); err != nil {
			return err
		}
		if err := e.Frame(5, []byte("submit")); err != nil {
			return err
		}
		return e.Frame(6, []byte("dispatch"))
	}, nil)
	// Duplicate frame then a gap, plus a torn tail.
	fuzzSeedStream(f, 0, func(e *replicate.Encoder) error {
		if err := e.Frame(1, []byte("a")); err != nil {
			return err
		}
		if err := e.Frame(1, []byte("a")); err != nil {
			return err
		}
		return e.Frame(3, []byte("c"))
	}, append([]byte{replicate.TypeFrame}, journal.AppendFrame(nil, 4, []byte("truncated"))[:12]...))

	f.Fuzz(func(t *testing.T, data []byte, from uint64) {
		h := &fuzzHandler{t: t, last: from}
		err := replicate.Replay(bytes.NewReader(data), from, h)
		switch {
		case err == nil:
		case errors.Is(err, replicate.ErrDiverged):
		case errors.Is(err, io.ErrUnexpectedEOF):
		default:
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}
