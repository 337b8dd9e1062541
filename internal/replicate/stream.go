package replicate

import (
	"context"
	"errors"
	"io"
	"time"

	"gridsched/internal/journal"
)

// Source streams a leader's journal to one follower connection. It never
// takes a service lock and never reads wal.log: frames come from the live
// writer, which holds what it wrote since its last two rotations, and the
// catch-up document from Snapshot.
type Source struct {
	// Log is the leader's live journal writer.
	Log *journal.Writer
	// Snapshot returns the leader's current checkpoint as one
	// self-contained document, with the LSN it covers, when that LSN is
	// at least next — the position the stream owes. A nil document means
	// the checkpoint (lsn, 0 when there is none) does not reach next. The
	// document's format is the owner's business; it travels opaque.
	Snapshot func(next uint64) (lsn uint64, doc []byte, err error)
	// Done, when closed, ends the stream (service shutdown). Optional.
	Done <-chan struct{}
	// OnFrames, if set, is told how many frames each write streamed
	// (metrics).
	OnFrames func(n int)
}

// heartbeat is the idle beacon cadence.
var heartbeat = time.Second

// Serve streams frames with LSN > from to w until ctx or Done ends, or a
// write fails (follower gone). The checkpoint is sent instead of frames to
// a follower that attaches behind it, and to one the writer no longer holds
// frames for — two rotations behind; framing resumes past it.
func (s *Source) Serve(ctx context.Context, w io.Writer, from uint64) error {
	enc := NewEncoder(w)
	flush := func() error {
		if err := enc.Flush(); err != nil {
			return err
		}
		if f, ok := w.(interface{ Flush() }); ok {
			f.Flush()
		}
		return nil
	}
	tick := time.NewTicker(heartbeat)
	defer tick.Stop()

	// Immediate heartbeat: the follower learns the leader's position (and
	// that the stream is live) before the first frame.
	if err := enc.Heartbeat(s.Log.LastLSN()); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}

	next := from + 1
	for attach := true; ; attach = false {
		if err := s.interrupted(ctx); err != nil {
			return err
		}
		// Subscribe before looking, so an append between the look and the
		// wait cannot be missed.
		notify := s.Log.AppendNotify()
		frames, held := s.Log.Frames(next - 1)
		if attach || !held {
			// The manifest is in place before the log rotates, so a frame
			// the writer let go is one the checkpoint read now covers.
			lsn, doc, err := s.Snapshot(next)
			if err != nil {
				return err
			}
			if doc != nil {
				if err := enc.Snapshot(lsn, doc); err != nil {
					return err
				}
				if err := flush(); err != nil {
					return err
				}
				next = lsn + 1
				continue
			}
		}
		if len(frames) == 0 {
			// Drained: push what we buffered, then wait for more.
			if err := flush(); err != nil {
				return err
			}
			if err := s.idle(ctx, enc, flush, notify, tick.C); err != nil {
				return err
			}
			continue
		}
		n, err := enc.Frames(frames)
		if err != nil {
			return err
		}
		next += uint64(n)
		if s.OnFrames != nil {
			s.OnFrames(n)
		}
	}
}

// idle waits for an append, a heartbeat tick, or shutdown.
func (s *Source) idle(ctx context.Context, enc *Encoder, flush func() error, notify <-chan struct{}, tick <-chan time.Time) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-s.Done:
		return errStreamDone
	case <-notify:
		return nil
	case <-tick:
		if err := enc.Heartbeat(s.Log.LastLSN()); err != nil {
			return err
		}
		return flush()
	}
}

var errStreamDone = errors.New("replicate: source shut down")

func (s *Source) interrupted(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-s.Done:
		return errStreamDone
	default:
		return nil
	}
}
