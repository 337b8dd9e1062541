// Package journal implements the persistence substrate of gridschedd
// (internal/service): an append-only write-ahead log of framed records plus
// an atomically-replaced snapshot file.
//
// # Log format
//
// A log file starts with the 8-byte magic "GSWAL001". Each record is
// framed as
//
//	uint32  payload length (little endian)
//	uint32  CRC-32C over (lsn bytes ++ payload)
//	uint64  LSN (little endian)
//	bytes   payload
//
// LSNs are assigned by the writer, strictly increasing, and survive log
// rotation (a snapshot records the LSN it covers; the log restarts empty
// but the numbering continues), so a reader can skip records a snapshot
// already covers. The payload is opaque to this package — the service
// journals fixed-layout binary records, the workload of a submit in the
// encoding workload-<job>.bin uses (internal/service/record.go has the
// layout, docs/ARCHITECTURE.md the data-dir format).
//
// This package owns the frame from end to end: AppendFrame is its one
// encoder and FrameReader.Next its one decoder. ReadLog is the one reader of
// the log file. A standby is served the frames the Writer keeps in memory
// (Frames), each after a type byte on the replication stream
// (internal/replicate).
//
// # Durability
//
// Append takes a group of records; concurrent callers combine, and each
// batch reaches the file with a single write(2), so an acknowledged record
// survives a crash of the process (SIGKILL included) as soon as Append
// returns: the bytes are in the OS page cache. What the fsync mode
// controls is durability against a crash of the *machine*:
//
//   - SyncAlways: WaitDurable blocks until an fsync covers the record.
//     Concurrent waiters are group-committed: one fsync acknowledges every
//     record appended before it started.
//   - SyncBatch: WaitDurable returns immediately; a background flusher
//     fsyncs at a fixed interval (plus at rotation and close), bounding
//     the machine-crash loss window to that interval.
//   - SyncNever: no fsync except at rotation; for tests and benchmarks.
//
// A write or fsync failure is terminal: the writer poisons itself and
// every subsequent Append/WaitDurable returns the error. The service
// treats that as fail-stop — better to crash and recover from the last
// durable state than to acknowledge mutations the log did not keep.
//
// # Torn writes
//
// A crash can tear the final record (short write). ReadLog validates
// frames in order and stops at the first bad length, CRC, or
// non-monotonic LSN; OpenWriter then truncates the file back to the valid
// prefix, so the log converges to exactly the acknowledged-and-retained
// record sequence.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects the fsync policy of a Writer (see the package comment).
type Mode int

// Fsync modes.
const (
	SyncBatch Mode = iota // default: interval-batched fsync
	SyncAlways
	SyncNever
)

func (m Mode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode resolves the -fsync flag values.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch", "":
		return SyncBatch, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("journal: unknown fsync mode %q (want always, batch or never)", s)
	}
}

var logMagic = []byte("GSWAL001")

const (
	frameHeaderLen = 4 + 4 + 8
	// MaxRecordLen bounds one payload; the largest service record is a job
	// submission embedding its workload, itself bounded by the HTTP body
	// limit (64 MiB).
	MaxRecordLen = 128 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxRetainedBatch is the largest batch buffer Append keeps for reuse; one
// that a big record grew past it is dropped after its write.
const maxRetainedBatch = 64 << 10

var (
	// ErrClosed is returned by operations on a closed (or crashed) writer.
	ErrClosed = errors.New("journal: writer closed")
	// ErrRecordTooLarge refuses a payload over MaxRecordLen. It fails the
	// Append that brought it and nobody else: the payload is never queued.
	ErrRecordTooLarge = errors.New("journal: record exceeds the log's record cap")
	// ErrBadFrame reports a frame that fails validation: a length over the
	// reader's cap, an LSN out of order, or a CRC mismatch.
	ErrBadFrame = errors.New("journal: bad frame")
)

// AppendFrame appends payload framed as the record with the given LSN to
// dst. It is the one frame encoder: the log, and the replication stream
// after its type byte, carry exactly these bytes. The CRC is taken over the
// copy in dst, so payload does not escape.
func AppendFrame(dst []byte, lsn uint64, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // the CRC, once the rest is in
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[start+8:], crcTable))
	return dst
}

// FrameLen returns the length, header included, of the frame frames starts
// with: a run of whole frames splits at FrameLen.
func FrameLen(frames []byte) int {
	return frameHeaderLen + int(binary.LittleEndian.Uint32(frames))
}

// FrameReader decodes consecutive frames from a buffered stream: a log past
// its magic (ReadLog) or a replication stream past each message's type
// byte. Its Next is the one frame decoder.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte // the last frame read: header, then payload
}

// NewFrameReader decodes frames from r.
func NewFrameReader(r *bufio.Reader) *FrameReader { return &FrameReader{r: r} }

// Next decodes the next frame, whose payload may be at most limit bytes and
// whose LSN may not be below least. It returns io.EOF when the stream ends on
// a frame boundary, io.ErrUnexpectedEOF when it ends inside a frame, and
// ErrBadFrame for a frame that fails validation. The payload is valid until
// the next call.
func (d *FrameReader) Next(limit int, least uint64) (uint64, []byte, error) {
	frame := append(d.buf[:0], make([]byte, frameHeaderLen)...)
	if _, err := io.ReadFull(d.r, frame); err != nil {
		return 0, nil, err
	}
	length := binary.LittleEndian.Uint32(frame)
	lsn := binary.LittleEndian.Uint64(frame[8:])
	if int64(length) > int64(limit) {
		return 0, nil, fmt.Errorf("%w: %d-byte payload over the %d-byte cap", ErrBadFrame, length, limit)
	}
	if lsn < least {
		return 0, nil, fmt.Errorf("%w: lsn %d, want at least %d", ErrBadFrame, lsn, least)
	}
	for n := frameHeaderLen + int(length); len(frame) < n; {
		// Grow with the bytes that arrive, not with what the header claims:
		// a corrupt length costs no more memory than the stream holds.
		frame = slices.Grow(frame, min(n, max(2*len(frame), 4<<10))-len(frame))
		m, err := io.ReadFull(d.r, frame[len(frame):min(n, cap(frame))])
		frame = frame[:len(frame)+m]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return 0, nil, err
		}
	}
	d.buf = frame
	if crc32.Checksum(frame[8:], crcTable) != binary.LittleEndian.Uint32(frame[4:]) {
		return 0, nil, fmt.Errorf("%w: crc mismatch at lsn %d", ErrBadFrame, lsn)
	}
	return lsn, frame[frameHeaderLen:], nil
}

// File is the handle a Writer appends to. *os.File satisfies it; tests
// substitute a fault-injecting implementation (internal/faultinject.File)
// to prove that write and fsync failures poison the writer instead of
// silently acknowledging records the log did not keep.
type File interface {
	io.Writer
	io.ReaderAt
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// Metrics receives the writer's activity counters; a nil *Metrics disables
// reporting. The fields alias the service's /metrics gauges.
type Metrics struct {
	Records atomic.Int64 // records appended
	Bytes   atomic.Int64 // frame bytes written
	Fsyncs  atomic.Int64 // fsync(2) calls issued
}

// Writer appends framed records to one log file.
type Writer struct {
	mode     Mode
	interval time.Duration
	met      *Metrics

	// The append queue (see Append). qmu is taken before any other lock.
	qmu     sync.Mutex
	qcond   *sync.Cond
	queued  uint64 // last LSN handed out
	open    []byte // frames queued, not yet handed to a write
	spare   []byte // the buffer of the batch in flight, the next open one
	writing bool   // a batch write is in flight

	mu       sync.Mutex // file writes, rotation
	f        File
	appended atomic.Uint64 // last LSN written

	syncMu  sync.Mutex
	syncCh  *sync.Cond
	durable uint64 // last LSN covered by an fsync
	err     error  // terminal write/sync failure, or ErrClosed
	closed  bool   // shutdown ran; distinct from err, which poison also sets

	// cur holds what the file holds since the last rotation, prev the
	// segment before it: what Frames serves a streamer from. heldMu is
	// taken under mu by write and Rotate, alone by Frames.
	heldMu    sync.Mutex
	cur, prev segment

	// notify is closed and replaced by the first append after AppendNotify
	// handed it out, so a streamer can block for "new frames" without
	// polling and an append nobody follows allocates nothing.
	notifyMu      sync.Mutex
	notify        chan struct{}
	notifyAwaited bool // notify was handed out since it was last replaced

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// OpenWriter opens (creating if needed) the log at path for appending.
// lastLSN seeds the LSN sequence (pass the last LSN recovered by ReadLog,
// or 0 for a fresh log); validSize is the length of the validated prefix —
// anything beyond it (a torn tail) is truncated away. A validSize below
// the header length means ReadLog found no intact header (a crash tore
// the very first write), so the file is reset to an empty log — callers
// must pass ReadLog's ValidSize, never a guess, or risk discarding a
// healthy log. met may be nil.
func OpenWriter(path string, mode Mode, interval time.Duration, lastLSN uint64, validSize int64, met *Metrics) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	created := err == nil
	if errors.Is(err, fs.ErrExist) {
		f, err = os.OpenFile(path, os.O_RDWR, 0o644)
	}
	if err != nil {
		return nil, err
	}
	if created {
		// A new file's name persists only once its directory is fsynced:
		// without this, records acknowledged before the first checkpoint
		// could vanish with the entry in a machine crash.
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	return OpenWriterFile(f, mode, interval, lastLSN, validSize, met)
}

// OpenWriterFile is OpenWriter over an already-open File — the seam that
// lets fault-injection tests hand the writer a handle whose writes and
// fsyncs fail on cue. On error the file is closed.
func OpenWriterFile(f File, mode Mode, interval time.Duration, lastLSN uint64, validSize int64, met *Metrics) (*Writer, error) {
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	switch {
	case validSize > st.Size():
		f.Close()
		return nil, fmt.Errorf("journal: valid prefix %d beyond file size %d", validSize, st.Size())
	case st.Size() == 0 || validSize < int64(len(logMagic)):
		// Fresh file — or a header torn by a crash during the very first
		// open (ReadLog reports ValidSize 0 for it). Rewrite the magic so
		// the log self-heals instead of bricking every restart.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(logMagic); err != nil {
			f.Close()
			return nil, err
		}
		validSize = int64(len(logMagic))
	case validSize < st.Size():
		if err := f.Truncate(validSize); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(validSize, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{
		mode:     mode,
		interval: interval,
		met:      met,
		f:        f,
		queued:   lastLSN,
		notify:   make(chan struct{}),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	w.appended.Store(lastLSN)
	w.durable = lastLSN
	w.cur.first = lastLSN + 1
	if validSize > int64(len(logMagic)) {
		// A log that is not empty at open (recovery could not compact it, or
		// a standby restarted) is held as if this writer had written it —
		// when its LSNs run one by one up to lastLSN, as this package writes
		// them. ReadLog's prefix rises strictly: its ends tell.
		frames := make([]byte, validSize-int64(len(logMagic)))
		if _, err := f.ReadAt(frames, int64(len(logMagic))); err != nil {
			f.Close()
			return nil, err
		}
		held := segment{first: lastLSN + 1}
		held.add(frames)
		held.first -= uint64(len(held.offs))
		if held.lsn(0) == held.first && held.lsn(len(held.offs)-1) == lastLSN {
			w.cur = held
		}
	}
	w.prev.first = w.cur.first
	w.qcond = sync.NewCond(&w.qmu)
	w.syncCh = sync.NewCond(&w.syncMu)
	go w.flusher()
	return w, nil
}

// Append frames each payload as a record, assigns the group consecutive
// LSNs, and returns the first; the i-th payload has LSN first+i. It returns
// once the whole group is written: the records are process-crash durable,
// and machine-crash durability is WaitDurable's job. An empty group appends
// nothing and returns 0. The payloads are copied; the caller's buffers are
// its own again on return.
//
// Concurrent callers combine. A group is framed into the open batch under
// one lock hold, and the first caller to find no write in flight becomes the
// writer of everything queued so far: one write(2) for the lot. LSN order is
// call order, which is what lets callers fix a record's place in the log by
// appending inside the critical section that orders it. A payload over
// MaxRecordLen fails its own call with ErrRecordTooLarge before anything is
// queued. A failed write poisons the writer and fails every call queued
// behind it, so no group is ever acknowledged in part.
func (w *Writer) Append(payloads ...[]byte) (uint64, error) {
	for _, p := range payloads {
		if len(p) > MaxRecordLen {
			return 0, fmt.Errorf("%w: %d bytes, cap %d", ErrRecordTooLarge, len(p), MaxRecordLen)
		}
	}
	if len(payloads) == 0 {
		return 0, nil
	}
	w.qmu.Lock()
	defer w.qmu.Unlock()
	if err := w.failed(); err != nil {
		return 0, err
	}
	first := w.queued + 1
	for _, p := range payloads {
		w.queued++
		w.open = AppendFrame(w.open, w.queued, p)
	}
	for last := w.queued; w.appended.Load() < last; {
		if err := w.failed(); err != nil {
			return 0, err
		}
		if w.writing {
			w.qcond.Wait()
			continue
		}
		frames, upto := w.open, w.queued
		w.open, w.writing = w.spare[:0], true
		w.qmu.Unlock()
		w.write(frames, upto) // a failure poisons the writer: failed() reports it
		w.qmu.Lock()
		if cap(frames) > maxRetainedBatch {
			frames = nil
		}
		w.spare, w.writing = frames, false
		w.qcond.Broadcast()
	}
	return first, nil
}

// write puts one batch of frames, the last of them upto, in the file.
func (w *Writer) write(frames []byte, upto uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed() != nil {
		return
	}
	if _, err := w.f.Write(frames); err != nil {
		w.poison(err)
		return
	}
	if w.met != nil {
		w.met.Records.Add(int64(upto - w.appended.Load()))
		w.met.Bytes.Add(int64(len(frames)))
	}
	w.heldMu.Lock()
	w.cur.add(frames)
	w.heldMu.Unlock()
	w.appended.Store(upto)
	w.notifyAppend()
}

// segment is the frames the log held between two rotations — one
// checkpoint interval — as the file held them: the frame with LSN first+i
// starts at frames[offs[i]].
type segment struct {
	first  uint64
	frames []byte
	offs   []int
}

// add appends a run of whole frames, the next ones in LSN order. The bytes
// already in the segment are never written again: a view of them stays
// valid however the segment grows.
func (seg *segment) add(frames []byte) {
	for off := 0; off < len(frames); off += FrameLen(frames[off:]) {
		seg.offs = append(seg.offs, len(seg.frames)+off)
	}
	seg.frames = append(seg.frames, frames...)
}

// lsn is the LSN the i-th frame's header carries.
func (seg *segment) lsn(i int) uint64 { return binary.LittleEndian.Uint64(seg.frames[seg.offs[i]+8:]) }

// Frames returns the frames the writer holds with LSN above after, as the
// log holds them, from after+1 to the end of their segment: a streamer asks
// again from the last LSN it got until nothing comes back. held is false
// when frame after+1 is older than the segment before the last rotation.
// A frame is handed out once its write(2) returned; a view is never
// written again.
func (w *Writer) Frames(after uint64) (frames []byte, held bool) {
	w.heldMu.Lock()
	defer w.heldMu.Unlock()
	for _, seg := range [...]*segment{&w.prev, &w.cur} {
		if i := after + 1 - seg.first; after+1 >= seg.first && i < uint64(len(seg.offs)) {
			return seg.frames[seg.offs[i]:len(seg.frames):len(seg.frames)], true
		}
	}
	return nil, after+1 >= w.prev.first
}

// notifyAppend wakes every AppendNotify waiter (close-and-replace, the
// same lost-wakeup-free discipline as the service's long-poll hub).
func (w *Writer) notifyAppend() {
	w.notifyMu.Lock()
	if w.notifyAwaited {
		close(w.notify)
		w.notify = make(chan struct{})
		w.notifyAwaited = false
	}
	w.notifyMu.Unlock()
}

// AppendNotify returns a channel closed after the next append (or
// rotation, or shutdown — any event that should make a streamer look
// again). Subscribe BEFORE asking Frames, then wait.
func (w *Writer) AppendNotify() <-chan struct{} {
	w.notifyMu.Lock()
	ch := w.notify
	w.notifyAwaited = true
	w.notifyMu.Unlock()
	return ch
}

// WaitDurable blocks until the record at lsn is fsync-covered (SyncAlways)
// or returns immediately (SyncBatch, SyncNever). Callers must not hold
// locks that Append contends on: this is where group commit happens.
func (w *Writer) WaitDurable(lsn uint64) error {
	if w.mode != SyncAlways {
		w.syncMu.Lock()
		err := w.err
		w.syncMu.Unlock()
		return err
	}
	select {
	case w.wake <- struct{}{}:
	default:
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	for w.durable < lsn && w.err == nil {
		w.syncCh.Wait()
	}
	return w.err
}

// Sync forces an fsync covering everything appended so far.
func (w *Writer) Sync() error {
	return w.syncTo(w.appended.Load())
}

func (w *Writer) syncTo(target uint64) error {
	w.syncMu.Lock()
	if w.err != nil || w.durable >= target {
		err := w.err
		w.syncMu.Unlock()
		return err
	}
	w.syncMu.Unlock()

	w.mu.Lock()
	if err := w.failed(); err != nil {
		w.mu.Unlock()
		return err
	}
	// Re-read under mu: cover everything written before this fsync.
	target = w.appended.Load()
	err := w.f.Sync()
	w.mu.Unlock()
	if w.met != nil {
		w.met.Fsyncs.Add(1)
	}
	if err != nil {
		w.poison(err)
		return err
	}

	w.syncMu.Lock()
	if target > w.durable {
		w.durable = target
	}
	w.syncCh.Broadcast()
	w.syncMu.Unlock()
	return nil
}

// flusher services group commits (SyncAlways) and the batch interval
// (SyncBatch). SyncNever still runs it, but only wake requests (none) and
// stop reach it.
func (w *Writer) flusher() {
	defer close(w.done)
	var tick <-chan time.Time
	if w.mode == SyncBatch {
		t := time.NewTicker(w.interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-w.stop:
			return
		case <-w.wake:
		case <-tick:
		}
		target := w.appended.Load()
		w.syncMu.Lock()
		behind := w.durable < target && w.err == nil
		w.syncMu.Unlock()
		if behind {
			_ = w.syncTo(target) // errors poison the writer; waiters see them
		}
	}
}

// Rotate empties the log after a snapshot made its contents redundant. The
// LSN sequence continues; the truncation is fsynced so a machine crash
// cannot resurrect pre-snapshot records behind the snapshot's back. What
// the log held becomes the writer's previous segment, and the one before
// it is let go: a streamer that still needed it is sent the checkpoint.
func (w *Writer) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.failed(); err != nil {
		return err
	}
	if err := w.f.Truncate(int64(len(logMagic))); err != nil {
		w.poison(err)
		return err
	}
	if _, err := w.f.Seek(int64(len(logMagic)), io.SeekStart); err != nil {
		w.poison(err)
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.poison(err)
		return err
	}
	if w.met != nil {
		w.met.Fsyncs.Add(1)
	}
	w.syncMu.Lock()
	w.durable = w.appended.Load()
	w.syncCh.Broadcast()
	w.syncMu.Unlock()
	w.heldMu.Lock()
	w.prev, w.cur = w.cur, segment{first: w.appended.Load() + 1}
	w.heldMu.Unlock()
	w.notifyAppend()
	return nil
}

// LastLSN returns the LSN of the most recently appended record.
func (w *Writer) LastLSN() uint64 { return w.appended.Load() }

// Close syncs (unless SyncNever) and closes the file. Idempotent.
func (w *Writer) Close() error {
	var syncErr error
	if w.mode != SyncNever {
		syncErr = w.Sync()
	}
	return errors.Join(syncErr, w.shutdown(true))
}

// Abandon closes the file descriptor without syncing — the moral
// equivalent of SIGKILL, used by crash-recovery tests. Appended records
// remain readable (they reached the page cache) but nothing more is
// flushed.
func (w *Writer) Abandon() {
	_ = w.shutdown(false)
}

func (w *Writer) shutdown(reportCloseErr bool) error {
	w.syncMu.Lock()
	already := w.closed
	w.closed = true
	if w.err == nil {
		w.err = ErrClosed
	}
	w.syncCh.Broadcast()
	w.syncMu.Unlock()
	if already {
		return nil
	}
	w.notifyAppend() // unblock streamers so they observe the close
	close(w.stop)
	<-w.done
	w.mu.Lock()
	err := w.f.Close()
	w.mu.Unlock()
	if reportCloseErr {
		return err
	}
	return nil
}

// failed reports the terminal error, if any.
func (w *Writer) failed() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.err
}

// poison records a terminal I/O failure.
func (w *Writer) poison(err error) {
	w.syncMu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("journal: writer failed: %w", err)
	}
	w.syncCh.Broadcast()
	w.syncMu.Unlock()
	w.notifyAppend() // streamers must notice the failure, not hang
}

// LogInfo describes what ReadLog recovered.
type LogInfo struct {
	// ValidSize is the byte length of the validated record prefix; pass it
	// to OpenWriter, which truncates anything beyond it.
	ValidSize int64
	// LastLSN is the highest LSN read (0 when the log held no records).
	LastLSN uint64
	// Records counts the records delivered to the callback.
	Records int
	// Torn reports that the file extended past the valid prefix with a
	// record that failed validation — the signature of a crash mid-append.
	Torn bool
}

// ReadLog scans the log at path, invoking fn for every record with
// LSN > afterLSN, in order. Validation stops at the first torn or corrupt
// frame: everything before it is the recovered log, everything after is
// discarded by the next OpenWriter. A missing file is an empty log. The
// payload passed to fn is only valid for the duration of the call.
func ReadLog(path string, afterLSN uint64, fn func(lsn uint64, payload []byte) error) (LogInfo, error) {
	var info LogInfo
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return info, nil
	}
	if err != nil {
		return info, err
	}
	defer f.Close()

	// One read(2) per 64 KiB, not two per record.
	r := bufio.NewReaderSize(f, 64<<10)
	magic := make([]byte, len(logMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		// Even the magic is torn; treat as empty (a fresh OpenWriter
		// rewrites it).
		info.Torn = true
		return info, nil
	}
	if string(magic) != string(logMagic) {
		return info, fmt.Errorf("journal: %s is not a gridsched log (bad magic)", path)
	}
	info.ValidSize = int64(len(logMagic))
	frames := NewFrameReader(r)
	for {
		lsn, payload, err := frames.Next(MaxRecordLen, info.LastLSN+1)
		if err != nil {
			info.Torn = err != io.EOF
			return info, nil
		}
		info.ValidSize += frameHeaderLen + int64(len(payload))
		info.LastLSN = lsn
		if lsn > afterLSN {
			info.Records++
			if fn != nil {
				if err := fn(lsn, payload); err != nil {
					return info, err
				}
			}
		}
	}
}

// tempMark sits between a file's final name and the random suffix of its
// in-flight temp file; RemoveTemp finds crash leftovers by it.
const tempMark = ".tmp"

// WriteFileAtomic durably replaces path with data: write to a temp file in
// the same directory, fsync it, rename over path, fsync the directory.
// Readers see either the old or the new content, never a mix, and a file
// visible under its final name is complete and durable.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+tempMark+"*")
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(tmp.Name()) }() // no-op after the rename succeeds
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// RemoveTemp deletes the temp files a crash between WriteFileAtomic's
// create and rename left in dir; without it every such crash leaks one
// file forever. Call it only while nothing is writing into dir.
func RemoveTemp(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !strings.Contains(ent.Name(), tempMark) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// MkdirAll is os.MkdirAll that also fsyncs the parent of every directory
// it creates, so a new directory's name survives a machine crash.
func MkdirAll(dir string) error {
	var created []string
	for d := filepath.Clean(dir); ; d = filepath.Dir(d) {
		if _, err := os.Stat(d); err == nil {
			break
		} else if !os.IsNotExist(err) {
			return err
		}
		created = append(created, d)
		if filepath.Dir(d) == d {
			break
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range created {
		if err := syncDir(filepath.Dir(d)); err != nil {
			return err
		}
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
