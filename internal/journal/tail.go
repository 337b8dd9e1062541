package journal

import (
	"bufio"
	"errors"
	"io"
	"os"
)

// Tail-follow reading. A TailReader scans a live log file — one a Writer
// in the same process is still appending to — and yields fully validated
// frames in order. It is the read side of WAL replication: the leader's
// streamer walks the log with a TailReader and forwards each frame to
// followers.
//
// The contract with the concurrent Writer is deliberately conservative:
//   - A frame is yielded only once its header, payload, and CRC all
//     validate at the reader's current offset. Anything short or invalid
//     at the tail reads as ErrNoFrame ("not visible yet"): the caller
//     subscribes to Writer.AppendNotify BEFORE calling Next, waits, and
//     retries. Appends land with one write(2), so a frame becomes valid
//     atomically with respect to this reader.
//   - Rotation truncates the file under the reader's feet. The reader
//     reports ErrRotated when it can prove it (file shrank below its
//     offset); because the file can regrow before the reader stats it,
//     callers following a live Writer must ALSO snapshot
//     Writer.Rotations() before scanning and restart when it moves.

// ErrNoFrame reports that no complete, valid frame exists at the reader's
// offset yet. Transient by construction on a live log; wait and retry.
var ErrNoFrame = errors.New("journal: no complete frame at tail")

// ErrRotated reports that the log was truncated (rotated) behind the
// reader; its offset is meaningless. Reopen and resync from a snapshot.
var ErrRotated = errors.New("journal: log rotated under tail reader")

// TailReader reads validated frames from a (possibly live) log file.
type TailReader struct {
	f      *os.File
	r      *bufio.Reader
	frames *FrameReader
	off    int64  // offset of the next unread frame
	prev   uint64 // LSN of the last frame read
	after  uint64 // frames at or below it are skipped
}

// OpenTail opens the log at path for tail-following and positions the
// reader so that Next yields only frames with LSN > after.
func OpenTail(path string, after uint64) (*TailReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := bufio.NewReaderSize(f, 64<<10)
	t := &TailReader{f: f, r: r, frames: NewFrameReader(r), off: int64(len(logMagic)), after: after}
	magic := make([]byte, len(logMagic))
	_, err = io.ReadFull(r, magic)
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		// Magic not yet (re)written — treat as an empty log positioned at
		// its eventual start; Next reports ErrNoFrame until it appears.
		err = t.rewind()
		if err == nil {
			return t, nil
		}
	case err == nil && string(magic) != string(logMagic):
		err = errors.New("journal: " + path + " is not a gridsched log (bad magic)")
	case err == nil:
		return t, nil
	}
	f.Close()
	return nil, err
}

// Next returns the next frame with LSN above OpenTail's after. The payload is
// valid until the following Next call. ErrNoFrame means "nothing more is
// visible yet"; ErrRotated means the file shrank below the reader.
func (t *TailReader) Next() (uint64, []byte, error) {
	for {
		lsn, payload, err := t.frames.Next(MaxRecordLen, t.prev+1)
		if err != nil {
			return 0, nil, t.tailErr(err)
		}
		t.off += frameHeaderLen + int64(len(payload))
		t.prev = lsn
		if lsn > t.after {
			return lsn, payload, nil
		}
	}
}

// tailErr puts the reader back at the start of the frame it could not read,
// so the next call reads it again whole, and classifies the failure: the
// file either has not grown to a complete frame yet (ErrNoFrame) or was
// truncated below the reader (ErrRotated). On a live log a frame that fails
// validation is one still being written, or a mid-rotation read, which the
// Rotations check in the caller's loop turns into a restart.
func (t *TailReader) tailErr(err error) error {
	if rerr := t.rewind(); rerr != nil {
		return rerr
	}
	if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrBadFrame) {
		return err
	}
	st, serr := t.f.Stat()
	if serr == nil && st.Size() < t.off {
		return ErrRotated
	}
	return ErrNoFrame
}

// rewind drops what was read ahead and seeks back to t.off.
func (t *TailReader) rewind() error {
	t.r.Reset(t.f)
	_, err := t.f.Seek(t.off, io.SeekStart)
	return err
}

// Close releases the file handle.
func (t *TailReader) Close() error { return t.f.Close() }
