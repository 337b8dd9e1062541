package replicate_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridsched/internal/journal"
	"gridsched/internal/replicate"
)

// recorder is a Handler that records everything applied and re-checks
// the ordering guarantees Replay promises its callees. Mutex-guarded so
// the live-tail test can poll it from another goroutine under -race.
type recorder struct {
	t        *testing.T
	frameErr error

	mu         sync.Mutex
	last       uint64
	frames     []string
	snapshots  []uint64
	heartbeats []uint64
}

func (r *recorder) ApplyFrame(lsn uint64, payload []byte) error {
	if r.frameErr != nil {
		return r.frameErr
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.t != nil && lsn != r.last+1 {
		r.t.Errorf("ApplyFrame lsn %d after %d — Replay broke its contiguity promise", lsn, r.last)
	}
	r.last = lsn
	r.frames = append(r.frames, string(payload))
	return nil
}

func (r *recorder) ApplySnapshot(lsn uint64, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.t != nil && lsn < r.last {
		r.t.Errorf("ApplySnapshot lsn %d rewinds %d", lsn, r.last)
	}
	r.last = lsn
	r.snapshots = append(r.snapshots, lsn)
	return nil
}

func (r *recorder) Heartbeat(lastLSN uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.heartbeats = append(r.heartbeats, lastLSN)
}

func (r *recorder) lastLSN() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

func encodeStream(t *testing.T, build func(e *replicate.Encoder) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := replicate.NewEncoder(&buf)
	if err := build(e); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCodecRoundTrip(t *testing.T) {
	payload := []byte(`{"op":"submit"}`)
	snap := []byte(`{"lastLsn":7}`)
	data := encodeStream(t, func(e *replicate.Encoder) error {
		if err := e.Heartbeat(7); err != nil {
			return err
		}
		if err := e.Snapshot(7, snap); err != nil {
			return err
		}
		return e.Frame(8, payload)
	})
	d := replicate.NewDecoder(bytes.NewReader(data))
	msg, err := d.Next()
	if err != nil || msg.Type != replicate.TypeHeartbeat || msg.LSN != 7 {
		t.Fatalf("heartbeat: %+v, %v", msg, err)
	}
	msg, err = d.Next()
	if err != nil || msg.Type != replicate.TypeSnapshot || msg.LSN != 7 || !bytes.Equal(msg.Payload, snap) {
		t.Fatalf("snapshot: %+v, %v", msg, err)
	}
	msg, err = d.Next()
	if err != nil || msg.Type != replicate.TypeFrame || msg.LSN != 8 || !bytes.Equal(msg.Payload, payload) {
		t.Fatalf("frame: %+v, %v", msg, err)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v (want io.EOF)", err)
	}
}

func TestDecoderRejectsMalformed(t *testing.T) {
	frame := func(typ byte, lsn uint64, payload string) []byte {
		return journal.AppendFrame([]byte{typ}, lsn, []byte(payload))
	}
	flipped := frame(replicate.TypeFrame, 1, "payload")
	flipped[len(flipped)-1] ^= 1
	oversized := frame(replicate.TypeFrame, 1, "")
	binary.LittleEndian.PutUint32(oversized[1:], journal.MaxRecordLen+1)
	cases := map[string][]byte{
		"unknown type":      frame('G', 1, ""),
		"json header":       []byte(`{"type":"frame","lsn":1,"size":1}` + "\nx"),
		"bad crc":           flipped,
		"oversized frame":   oversized,
		"heartbeat w/ body": frame(replicate.TypeHeartbeat, 1, "abc"),
	}
	for name, in := range cases {
		d := replicate.NewDecoder(bytes.NewReader(in))
		if _, err := d.Next(); !errors.Is(err, replicate.ErrDiverged) {
			t.Errorf("%s: %v (want ErrDiverged)", name, err)
		}
	}
	// A truncated message is a transport failure, not divergence: the
	// follower may reconnect and resume.
	whole := frame(replicate.TypeFrame, 1, "0123456789")
	for _, cut := range []int{1, 5, len(whole) - 1} {
		d := replicate.NewDecoder(bytes.NewReader(whole[:cut]))
		if _, err := d.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: %v (want io.ErrUnexpectedEOF)", cut, err)
		}
	}
}

// TestOlderStreamFormatHalts: a leader still on the JSON-header stream
// format is refused at its first byte, before anything is applied — leader
// and standby upgrade together.
func TestOlderStreamFormatHalts(t *testing.T) {
	older := `{"type":"heartbeat","lsn":1}` + "\n" +
		`{"type":"frame","lsn":1,"size":1}` + "\na" +
		`{"type":"frame","lsn":2,"size":1}` + "\nb"
	rec := &recorder{t: t}
	if err := replicate.Replay(strings.NewReader(older), 0, rec); !errors.Is(err, replicate.ErrDiverged) {
		t.Fatalf("older stream: %v (want ErrDiverged)", err)
	}
	if len(rec.frames) != 0 || len(rec.snapshots) != 0 || len(rec.heartbeats) != 0 {
		t.Fatalf("applied from an older stream: frames %v snapshots %v heartbeats %v", rec.frames, rec.snapshots, rec.heartbeats)
	}
}

func TestReplayOrdering(t *testing.T) {
	t.Run("clean stream", func(t *testing.T) {
		data := encodeStream(t, func(e *replicate.Encoder) error {
			if err := e.Frame(1, []byte("a")); err != nil {
				return err
			}
			if err := e.Frame(2, []byte("b")); err != nil {
				return err
			}
			return e.Heartbeat(2)
		})
		rec := &recorder{t: t}
		if err := replicate.Replay(bytes.NewReader(data), 0, rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.frames) != 2 || rec.frames[0] != "a" || rec.frames[1] != "b" {
			t.Fatalf("frames %v", rec.frames)
		}
		if len(rec.heartbeats) != 1 || rec.heartbeats[0] != 2 {
			t.Fatalf("heartbeats %v", rec.heartbeats)
		}
	})

	t.Run("duplicates skipped", func(t *testing.T) {
		data := encodeStream(t, func(e *replicate.Encoder) error {
			for _, lsn := range []uint64{3, 4, 5} {
				if err := e.Frame(lsn, []byte{byte(lsn)}); err != nil {
					return err
				}
			}
			return nil
		})
		rec := &recorder{t: t, last: 4}
		if err := replicate.Replay(bytes.NewReader(data), 4, rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.frames) != 1 || rec.frames[0] != string([]byte{5}) {
			t.Fatalf("redelivered frames not skipped: applied %d frames", len(rec.frames))
		}
	})

	t.Run("lsn gap halts", func(t *testing.T) {
		data := encodeStream(t, func(e *replicate.Encoder) error {
			if err := e.Frame(1, []byte("a")); err != nil {
				return err
			}
			return e.Frame(3, []byte("c"))
		})
		rec := &recorder{t: t}
		if err := replicate.Replay(bytes.NewReader(data), 0, rec); !errors.Is(err, replicate.ErrDiverged) {
			t.Fatalf("gap: %v (want ErrDiverged)", err)
		}
		if len(rec.frames) != 1 {
			t.Fatalf("applied %d frames past the gap", len(rec.frames))
		}
	})

	t.Run("snapshot rewind halts", func(t *testing.T) {
		data := encodeStream(t, func(e *replicate.Encoder) error {
			return e.Snapshot(3, []byte("{}"))
		})
		if err := replicate.Replay(bytes.NewReader(data), 5, &recorder{}); !errors.Is(err, replicate.ErrDiverged) {
			t.Fatalf("snapshot rewind: %v (want ErrDiverged)", err)
		}
	})

	t.Run("leader behind follower halts", func(t *testing.T) {
		data := encodeStream(t, func(e *replicate.Encoder) error {
			return e.Heartbeat(2)
		})
		if err := replicate.Replay(bytes.NewReader(data), 5, &recorder{}); !errors.Is(err, replicate.ErrDiverged) {
			t.Fatalf("leader behind: %v (want ErrDiverged)", err)
		}
	})

	t.Run("snapshot advances position", func(t *testing.T) {
		data := encodeStream(t, func(e *replicate.Encoder) error {
			if err := e.Snapshot(10, []byte("{}")); err != nil {
				return err
			}
			return e.Frame(11, []byte("x"))
		})
		rec := &recorder{t: t}
		if err := replicate.Replay(bytes.NewReader(data), 0, rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.snapshots) != 1 || rec.snapshots[0] != 10 || len(rec.frames) != 1 || rec.last != 11 {
			t.Fatalf("snapshot catch-up: snapshots %v frames %v last %d", rec.snapshots, rec.frames, rec.last)
		}
	})

	t.Run("handler error stops replay", func(t *testing.T) {
		data := encodeStream(t, func(e *replicate.Encoder) error {
			if err := e.Frame(1, []byte("a")); err != nil {
				return err
			}
			return e.Frame(2, []byte("b"))
		})
		boom := errors.New("disk full")
		rec := &recorder{frameErr: boom}
		if err := replicate.Replay(bytes.NewReader(data), 0, rec); !errors.Is(err, boom) {
			t.Fatalf("handler error: %v", err)
		}
	})
}

// sourceEnv is one leader-side WAL plus a Source wired to it the way
// internal/service wires the live journal. Its checkpoint is the LSN the
// last rotate covered, and its catch-up document that LSN in decimal.
type sourceEnv struct {
	path string
	w    *journal.Writer
	src  *replicate.Source
	done chan struct{}
	ckpt atomic.Uint64
}

func newSourceEnv(t *testing.T) *sourceEnv {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := journal.OpenWriter(path, journal.SyncNever, 0, 0, 0, &journal.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	done := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-done:
		default:
			close(done)
		}
	})
	env := &sourceEnv{path: path, w: w, done: done}
	env.src = &replicate.Source{
		Log: w,
		Snapshot: func(next uint64) (uint64, []byte, error) {
			if lsn := env.ckpt.Load(); lsn > 0 && lsn >= next {
				return lsn, fmt.Append(nil, lsn), nil
			}
			return env.ckpt.Load(), nil, nil
		},
		Done: done,
	}
	return env
}

// rotate checkpoints the way the service does: the checkpoint is in place
// before the log rotates.
func (env *sourceEnv) rotate(t *testing.T) {
	t.Helper()
	env.ckpt.Store(env.w.LastLSN())
	if err := env.w.Rotate(); err != nil {
		t.Fatal(err)
	}
}

func (env *sourceEnv) append(t *testing.T, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if _, err := env.w.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
}

// serve streams from the given position into a decoder, past the
// heartbeat every stream starts with.
func (env *sourceEnv) serve(t *testing.T, from uint64) *replicate.Decoder {
	t.Helper()
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() { cancel(); pr.Close() })
	go func() { pw.CloseWithError(env.src.Serve(ctx, pw, from)) }()
	d := replicate.NewDecoder(pr)
	if msg, err := d.Next(); err != nil || msg.Type != replicate.TypeHeartbeat {
		t.Fatalf("first message %c@%d, %v; want a heartbeat", msg.Type, msg.LSN, err)
	}
	return d
}

// pauseAfterFirstFrames holds the streamer inside its first OnFrames call —
// its position already past what it wrote — until the returned resume is
// called; paused is closed once it is held.
func (env *sourceEnv) pauseAfterFirstFrames() (paused <-chan struct{}, resume func()) {
	p, r := make(chan struct{}), make(chan struct{})
	var once sync.Once
	env.src.OnFrames = func(int) { once.Do(func() { close(p); <-r }) }
	return p, func() { close(r) }
}

// expect reads the next message that is not a heartbeat and requires its
// type and LSN.
func expect(t *testing.T, d *replicate.Decoder, typ byte, lsn uint64) replicate.Msg {
	t.Helper()
	for {
		msg, err := d.Next()
		if err == nil && msg.Type == replicate.TypeHeartbeat {
			continue
		}
		if err != nil || msg.Type != typ || msg.LSN != lsn {
			t.Fatalf("message %c@%d, %v; want %c@%d", msg.Type, msg.LSN, err, typ, lsn)
		}
		return msg
	}
}

// TestSourceServesLiveTail: a follower connected at from=0 receives an
// initial heartbeat, the backlog, and then frames appended while the
// stream is live — in order, with the exact payload bytes.
func TestSourceServesLiveTail(t *testing.T) {
	env := newSourceEnv(t)
	for i := 0; i < 3; i++ {
		if _, err := env.w.Append([]byte{'a' + byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() {
		err := env.src.Serve(ctx, pw, 0)
		pw.Close() // clean close: the follower sees EOF, as after leader shutdown
		serveErr <- err
	}()

	rec := &recorder{t: t}
	replayErr := make(chan error, 1)
	go func() { replayErr <- replicate.Replay(pr, 0, rec) }()

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (at lsn %d)", what, rec.lastLSN())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor(func() bool { return rec.lastLSN() >= 3 }, "backlog")

	if _, err := env.w.Append([]byte("late")); err != nil {
		t.Fatal(err)
	}
	waitFor(func() bool { return rec.lastLSN() >= 4 }, "live append")

	close(env.done)
	if err := <-serveErr; err == nil {
		t.Fatal("Serve returned nil after shutdown")
	}
	if err := <-replayErr; err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && err != io.EOF {
		t.Fatalf("replay end: %v", err)
	}
	want := []string{"a", "b", "c", "late"}
	if len(rec.frames) != len(want) {
		t.Fatalf("frames %q, want %q", rec.frames, want)
	}
	for i := range want {
		if rec.frames[i] != want[i] {
			t.Fatalf("frame %d: %q, want %q", i, rec.frames[i], want[i])
		}
	}
	if len(rec.heartbeats) == 0 {
		t.Fatal("no heartbeat received")
	}
}

// TestSourceSnapshotCatchUp: when the snapshot already covers the
// requested position, the leader ships it first and resumes framing past
// it — the compaction-resilient path a long-offline follower depends on.
func TestSourceSnapshotCatchUp(t *testing.T) {
	env := newSourceEnv(t)
	// Leader state: snapshot covering LSNs 1..5, live WAL holding 6.
	snap := []byte(`{"lastLsn":5,"version":1}`)
	env.src.Snapshot = func(next uint64) (uint64, []byte, error) {
		if next > 5 {
			return 5, nil, nil
		}
		return 5, snap, nil
	}
	// Seed the writer's LSN sequence at 5 so the next append is 6.
	env.w.Close()
	w, err := journal.OpenWriter(env.path, journal.SyncNever, 0, 5, 0, &journal.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	env.src.Log = w
	if lsn, err := w.Append([]byte("six")); err != nil || lsn != 6 {
		t.Fatalf("append: lsn %d err %v", lsn, err)
	}

	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		err := env.src.Serve(ctx, pw, 0)
		pw.CloseWithError(err)
	}()

	d := replicate.NewDecoder(pr)
	msg, err := d.Next()
	if err != nil || msg.Type != replicate.TypeHeartbeat {
		t.Fatalf("first message: %+v, %v (want heartbeat)", msg, err)
	}
	msg, err = d.Next()
	if err != nil || msg.Type != replicate.TypeSnapshot || msg.LSN != 5 || !bytes.Equal(msg.Payload, snap) {
		t.Fatalf("second message: %+v, %v (want snapshot@5)", msg, err)
	}
	msg, err = d.Next()
	if err != nil || msg.Type != replicate.TypeFrame || msg.LSN != 6 || string(msg.Payload) != "six" {
		t.Fatalf("third message: %+v, %v (want frame@6)", msg, err)
	}
	close(env.done)
}

// TestSourceResumesFrom: a follower reconnecting with from=N gets N+1
// onward, never a redelivered prefix.
func TestSourceResumesFrom(t *testing.T) {
	env := newSourceEnv(t)
	for i := 0; i < 5; i++ {
		if _, err := env.w.Append([]byte{'a' + byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		err := env.src.Serve(ctx, pw, 3)
		pw.CloseWithError(err)
	}()
	d := replicate.NewDecoder(pr)
	msg, err := d.Next()
	if err != nil || msg.Type != replicate.TypeHeartbeat {
		t.Fatalf("first message: %+v, %v", msg, err)
	}
	for want := uint64(4); want <= 5; want++ {
		msg, err = d.Next()
		if err != nil || msg.Type != replicate.TypeFrame || msg.LSN != want {
			t.Fatalf("resume frame: %+v, %v (want frame@%d)", msg, err, want)
		}
	}
	close(env.done)
}

// TestSourceRotationMidStream is the leader checkpointing before its
// streamer forwarded the interval's last records: the frames continue from
// the interval the writer still holds, and no catch-up document is sent.
func TestSourceRotationMidStream(t *testing.T) {
	env := newSourceEnv(t)
	paused, resume := env.pauseAfterFirstFrames()
	env.append(t, "a")
	d := env.serve(t, 0)
	<-paused
	env.append(t, "b")
	env.rotate(t)
	env.append(t, "c")
	resume()
	for i, want := range []string{"a", "b", "c"} {
		if msg := expect(t, d, replicate.TypeFrame, uint64(i+1)); string(msg.Payload) != want {
			t.Fatalf("frame %d: %q, want %q", i+1, msg.Payload, want)
		}
	}
}

// TestSourceTwoRotationsBehind: a streamer two rotations behind is owed a
// frame the writer let go, so it is sent the checkpoint once, then frames.
func TestSourceTwoRotationsBehind(t *testing.T) {
	env := newSourceEnv(t)
	paused, resume := env.pauseAfterFirstFrames()
	env.append(t, "a")
	d := env.serve(t, 0)
	<-paused
	env.append(t, "b")
	env.rotate(t)
	env.append(t, "c")
	env.rotate(t)
	env.append(t, "d")
	resume()
	expect(t, d, replicate.TypeFrame, 1)
	if msg := expect(t, d, replicate.TypeSnapshot, 3); string(msg.Payload) != "3" {
		t.Fatalf("catch-up document %q, want the checkpoint at 3", msg.Payload)
	}
	expect(t, d, replicate.TypeFrame, 4)
	env.append(t, "e")
	expect(t, d, replicate.TypeFrame, 5)
}

// TestSourceAttachBehindCheckpoint: a follower attaching behind the
// checkpoint is sent it first, though the writer still holds the frames;
// one attaching at it is sent frames only.
func TestSourceAttachBehindCheckpoint(t *testing.T) {
	env := newSourceEnv(t)
	env.append(t, "a", "b", "c")
	env.rotate(t)
	env.append(t, "d")
	d := env.serve(t, 1)
	expect(t, d, replicate.TypeSnapshot, 3)
	expect(t, d, replicate.TypeFrame, 4)

	d = env.serve(t, 3)
	expect(t, d, replicate.TypeFrame, 4)
	env.append(t, "e")
	expect(t, d, replicate.TypeFrame, 5)
}
