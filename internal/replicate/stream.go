package replicate

import (
	"context"
	"errors"
	"io"
	"os"
	"time"

	"gridsched/internal/journal"
)

// Source streams a leader's WAL to one follower connection. The fields
// point at the live journal owned by internal/service; Serve never takes
// a service lock — it reads the WAL file and the checkpoint the same way
// recovery would, synchronized only by the writer's append notifications
// and rotation counter.
type Source struct {
	// WALPath locates the leader's live journal.
	WALPath string
	// Snapshot returns the leader's current checkpoint as one
	// self-contained document, with the LSN it covers, when that LSN is
	// at least next — the position the stream owes. A nil document means
	// the checkpoint (lsn, 0 when there is none) does not reach next. The
	// document's format is the owner's business; it travels opaque.
	Snapshot func(next uint64) (lsn uint64, doc []byte, err error)
	// LastLSN, Notify and Rotations come from the live journal.Writer.
	LastLSN   func() uint64
	Notify    func() <-chan struct{}
	Rotations func() uint64
	// Done, when closed, ends the stream (service shutdown). Optional.
	Done <-chan struct{}
	// Heartbeat is the idle beacon cadence; 0 picks 1s.
	Heartbeat time.Duration
	// OnFrame, if set, is called once per streamed frame (metrics).
	OnFrame func()
}

// Serve streams frames with LSN > from to w until ctx or Done ends, or a
// write fails (follower gone). When the WAL tail no longer reaches the
// requested position — a snapshot rotation compacted it — the current
// snapshot is shipped instead and framing resumes past it.
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
	hb := s.Heartbeat
	if hb <= 0 {
		hb = time.Second
	}
	tick := time.NewTicker(hb)
	defer tick.Stop()

	// Immediate heartbeat: the follower learns the leader's position (and
	// that the stream is live) before the first frame.
	if err := enc.Heartbeat(s.LastLSN()); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}

	next := from + 1
	for {
		if err := s.interrupted(ctx); err != nil {
			return err
		}
		// Snapshot catch-up: whenever the snapshot already covers the
		// position we owe, it is both the only complete source (the tail
		// may have rotated) and the cheapest one.
		snapLSN, doc, err := s.Snapshot(next)
		if err != nil {
			return err
		}
		if doc != nil {
			if err := enc.Snapshot(snapLSN, doc); err != nil {
				return err
			}
			if err := flush(); err != nil {
				return err
			}
			next = snapLSN + 1
			continue
		}
		// Subscribe before opening the tail so an append between "no WAL
		// yet" and the wait cannot be missed.
		notify := s.Notify()
		tr, err := journal.OpenTail(s.WALPath, next-1)
		if err != nil {
			if !os.IsNotExist(err) {
				return err
			}
			if err := s.idle(ctx, enc, flush, notify, tick.C); err != nil {
				return err
			}
			continue
		}
		err = s.followTail(ctx, enc, flush, tr, &next, tick.C)
		_ = tr.Close()
		if err != nil {
			return err
		}
		// nil: rotation or gap — loop and re-resolve via the snapshot.
	}
}

// followTail streams consecutive frames from tr until rotation (or an
// LSN gap) invalidates it — returning nil so the caller re-resolves —
// or a real error ends the stream.
func (s *Source) followTail(ctx context.Context, enc *Encoder, flush func() error, tr *journal.TailReader, next *uint64, tick <-chan time.Time) error {
	epoch := s.Rotations()
	for {
		if err := s.interrupted(ctx); err != nil {
			return err
		}
		if s.Rotations() != epoch {
			return nil
		}
		notify := s.Notify()
		lsn, payload, err := tr.Next()
		switch {
		case err == nil:
			if lsn != *next {
				// The tail starts past the position we owe: it was
				// compacted; the snapshot has it.
				return nil
			}
			if err := enc.Frame(lsn, payload); err != nil {
				return err
			}
			*next = lsn + 1
			if s.OnFrame != nil {
				s.OnFrame()
			}
		case errors.Is(err, journal.ErrNoFrame):
			// Drained: push what we buffered, then wait for more.
			if err := flush(); err != nil {
				return err
			}
			if err := s.idle(ctx, enc, flush, notify, tick); err != nil {
				return err
			}
		case errors.Is(err, journal.ErrRotated):
			return nil
		default:
			return err
		}
	}
}

// idle waits for an append, a heartbeat tick, or shutdown.
func (s *Source) idle(ctx context.Context, enc *Encoder, flush func() error, notify <-chan struct{}, tick <-chan time.Time) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done():
		return errStreamDone
	case <-notify:
		return nil
	case <-tick:
		if err := enc.Heartbeat(s.LastLSN()); err != nil {
			return err
		}
		return flush()
	}
}

var errStreamDone = errors.New("replicate: source shut down")

func (s *Source) done() <-chan struct{} { return s.Done }

func (s *Source) interrupted(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done():
		return errStreamDone
	default:
		return nil
	}
}
