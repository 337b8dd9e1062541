// Package replicate implements hot-standby WAL replication for
// gridschedd: a leader streams journal frames to followers over one
// long-lived chunked HTTP response, and a follower persists them through
// its own journal.Writer so that promotion is nothing more than the
// recovery path the single-node gauntlet already proves bit-exact.
//
// # Wire format
//
// The stream is a sequence of messages, each one type byte followed by one
// journal frame (internal/journal: length, CRC-32C, LSN, payload) — the
// bytes the leader's log holds, decoded by the reader that reads the log:
//
//	'H' frame(lsn = leader's last LSN, empty payload)    heartbeat
//	'F' frame(lsn, one journal record)                    frame
//	'S' frame(lsn = LSN it covers, one catch-up document) snapshot
//
// The follower checks each frame's CRC before it applies anything, then
// appends the payload through its own journal.Writer, which must assign
// exactly the streamed LSN or the follower halts. A stream in the older
// format, a JSON header line per message, starts with '{' and halts at
// its first byte.
//
// # Resumption and catch-up
//
// A follower connects with ?from=<lsn>, the last LSN it holds. The
// leader serves lsn+1, lsn+2, … verbatim from the frames its journal
// writer holds (journal.Writer.Frames: two checkpoint intervals). The
// catch-up document ('S', lsn = the LSN it covers) goes only to a follower
// that attaches behind the leader's checkpoint or falls two rotations
// behind; framing resumes past it. Heartbeats flow whenever the stream is
// idle so the follower can measure lag and detect leader death.
//
// # Safety
//
// The follower applies a frame only when its LSN is exactly one past the
// last applied; a gap or regressing snapshot is a protocol violation and
// the stream halts (ErrDiverged) rather than writing a log that disagrees
// with the leader's. Duplicated frames at or below the applied position
// (redelivery after reconnect) are skipped. See docs/REPLICATION.md.
package replicate

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"gridsched/internal/journal"
)

// Message types: the byte before each message's frame.
const (
	TypeHeartbeat byte = 'H'
	TypeFrame     byte = 'F'
	TypeSnapshot  byte = 'S'
)

// MaxSnapshotLen bounds a streamed snapshot body.
const MaxSnapshotLen = 1 << 30

// ErrDiverged marks a protocol violation that could make the follower's
// log disagree with the leader's — an LSN gap, a regressing snapshot, a
// malformed message. The follower halts the stream instead of applying.
var ErrDiverged = errors.New("replicate: stream diverged")

// Msg is one decoded stream message. Payload aliases a reused buffer:
// valid only until the next Decoder.Next call.
type Msg struct {
	Type    byte
	LSN     uint64
	Payload []byte
}

// Encoder writes stream messages. Not safe for concurrent use.
type Encoder struct {
	w *bufio.Writer
}

// NewEncoder wraps w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriterSize(w, 32<<10)}
}

func (e *Encoder) msg(typ byte, lsn uint64, payload []byte) error {
	_, err := e.w.Write(journal.AppendFrame(append(e.w.AvailableBuffer(), typ), lsn, payload))
	return err
}

// Frames writes a run of whole journal frames, as journal.Writer.Frames
// hands them out, one message each: the type byte, then the frame's bytes
// verbatim. It returns how many it wrote.
func (e *Encoder) Frames(frames []byte) (n int, err error) {
	for ; len(frames) > 0 && err == nil; n++ {
		size := journal.FrameLen(frames)
		_ = e.w.WriteByte(TypeFrame) // a bufio.Writer's error sticks: Write reports it
		_, err = e.w.Write(frames[:size])
		frames = frames[size:]
	}
	return n, err
}

// Snapshot writes a snapshot catch-up message; lsn is the LSN the
// snapshot covers.
func (e *Encoder) Snapshot(lsn uint64, data []byte) error { return e.msg(TypeSnapshot, lsn, data) }

// Heartbeat writes a liveness/lag beacon carrying the leader's last LSN.
func (e *Encoder) Heartbeat(lastLSN uint64) error { return e.msg(TypeHeartbeat, lastLSN, nil) }

// Flush pushes buffered bytes to the underlying writer.
func (e *Encoder) Flush() error { return e.w.Flush() }

// Decoder reads stream messages. Not safe for concurrent use.
type Decoder struct {
	r      *bufio.Reader
	frames *journal.FrameReader
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	br := bufio.NewReaderSize(r, 32<<10)
	return &Decoder{r: br, frames: journal.NewFrameReader(br)}
}

// Next decodes one message. io.EOF at a message boundary means the
// stream ended cleanly, io.ErrUnexpectedEOF that it tore inside one; every
// malformed message maps to ErrDiverged.
func (d *Decoder) Next() (Msg, error) {
	typ, err := d.r.ReadByte()
	if err != nil {
		return Msg{}, err
	}
	var limit int
	switch typ {
	case TypeHeartbeat:
	case TypeFrame:
		limit = journal.MaxRecordLen
	case TypeSnapshot:
		limit = MaxSnapshotLen
	default:
		return Msg{}, fmt.Errorf("%w: unknown message type byte %#02x", ErrDiverged, typ)
	}
	lsn, payload, err := d.frames.Next(limit, 0)
	switch {
	case err == io.EOF:
		return Msg{}, io.ErrUnexpectedEOF
	case errors.Is(err, journal.ErrBadFrame):
		return Msg{}, fmt.Errorf("%w: %c message: %v", ErrDiverged, typ, err)
	case err != nil:
		return Msg{}, err
	}
	return Msg{Type: typ, LSN: lsn, Payload: payload}, nil
}
