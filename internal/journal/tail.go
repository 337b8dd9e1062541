package journal

import (
	"encoding/binary"
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
	f       *os.File
	off     int64  // offset of the next unread frame
	last    uint64 // last LSN yielded (or the afterLSN floor)
	scratch []byte
}

// OpenTail opens the log at path for tail-following and positions the
// reader so that Next yields only frames with LSN > after.
func OpenTail(path string, after uint64) (*TailReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	magic := make([]byte, len(logMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		// Magic not yet (re)written — treat as an empty log positioned at
		// its eventual start; Next reports ErrNoFrame until it appears.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return &TailReader{f: f, off: int64(len(logMagic)), last: after}, nil
		}
		f.Close()
		return nil, err
	}
	if string(magic) != string(logMagic) {
		f.Close()
		return nil, errors.New("journal: " + path + " is not a gridsched log (bad magic)")
	}
	return &TailReader{f: f, off: int64(len(logMagic)), last: after}, nil
}

// Next returns the next frame with LSN above the floor. The payload is
// valid until the following Next call. ErrNoFrame means "nothing more is
// visible yet"; ErrRotated means the file shrank below the reader.
func (t *TailReader) Next() (uint64, []byte, error) {
	for {
		lsn, payload, err := t.readFrame()
		if err != nil {
			return 0, nil, err
		}
		if lsn > t.last {
			t.last = lsn
			return lsn, payload, nil
		}
	}
}

// readFrame validates and consumes the frame at t.off, regardless of the
// LSN floor.
func (t *TailReader) readFrame() (uint64, []byte, error) {
	var header [frameHeaderLen]byte
	if _, err := t.f.ReadAt(header[:], t.off); err != nil {
		return 0, nil, t.tailErr(err)
	}
	length := binary.LittleEndian.Uint32(header[0:4])
	crc := binary.LittleEndian.Uint32(header[4:8])
	lsn := binary.LittleEndian.Uint64(header[8:16])
	if length > MaxRecordLen {
		// On a live log a garbage header can only be a mid-rotation read;
		// the Rotations check in the caller's loop converts this stall
		// into a restart.
		return 0, nil, ErrNoFrame
	}
	if cap(t.scratch) < int(length) {
		t.scratch = make([]byte, length)
	}
	payload := t.scratch[:length]
	if _, err := t.f.ReadAt(payload, t.off+frameHeaderLen); err != nil {
		return 0, nil, t.tailErr(err)
	}
	if frameCRC(header[8:16], payload) != crc {
		return 0, nil, ErrNoFrame
	}
	t.off += frameHeaderLen + int64(length)
	return lsn, payload, nil
}

// tailErr classifies a short read: the file either has not grown to the
// frame yet (ErrNoFrame) or was truncated below the reader (ErrRotated).
func (t *TailReader) tailErr(err error) error {
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return err
	}
	st, serr := t.f.Stat()
	if serr == nil && st.Size() < t.off {
		return ErrRotated
	}
	return ErrNoFrame
}

// Close releases the file handle.
func (t *TailReader) Close() error { return t.f.Close() }
