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
// # Durability
//
// Append writes the frame to the file with a single write(2), so an
// acknowledged record survives a crash of the process (SIGKILL included)
// as soon as Append returns: the bytes are in the OS page cache. What the
// fsync mode controls is durability against a crash of the *machine*:
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
	"os"
	"path/filepath"
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

// frameCRC checksums a frame's LSN bytes (as framed: little endian) and its
// payload. The LSN comes as the caller's slice of the frame — a local
// array would escape through the checksum call, one allocation per record.
func frameCRC(lsn, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(lsn, crcTable), crcTable, payload)
}

// ErrClosed is returned by operations on a closed (or crashed) writer.
var ErrClosed = errors.New("journal: writer closed")

// File is the handle a Writer appends to. *os.File satisfies it; tests
// substitute a fault-injecting implementation (internal/faultinject.File)
// to prove that write and fsync failures poison the writer instead of
// silently acknowledging records the log did not keep.
type File interface {
	io.Writer
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

	mu       sync.Mutex // file writes, rotation
	f        File
	scratch  []byte
	appended atomic.Uint64 // last LSN written

	syncMu  sync.Mutex
	syncCh  *sync.Cond
	durable uint64 // last LSN covered by an fsync
	err     error  // terminal write/sync failure, or ErrClosed
	closed  bool   // shutdown ran; distinct from err, which poison also sets

	// rotations counts Rotate calls. Tail-following readers (the
	// replication streamer) snapshot it before scanning and restart when
	// it moves: a rotation invalidates every byte offset they held.
	rotations atomic.Uint64

	// notify is closed and replaced by the first append after AppendNotify
	// handed it out, so a tail-following reader can block for "new frames"
	// without polling and an append nobody follows allocates nothing.
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
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
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
		notify:   make(chan struct{}),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	w.appended.Store(lastLSN)
	w.durable = lastLSN
	w.syncCh = sync.NewCond(&w.syncMu)
	go w.flusher()
	return w, nil
}

// Append frames payload, assigns it the next LSN, and writes it with one
// write(2). The record is process-crash durable when Append returns;
// machine-crash durability is WaitDurable's job.
func (w *Writer) Append(payload []byte) (uint64, error) {
	return w.AppendBatch([][]byte{payload})
}

// AppendBatch frames every payload as consecutive records and writes the
// whole group with ONE write(2) — the group-append primitive behind the
// service's commit stage, where records accumulated while a previous
// write was in flight land together. Returns the LSN of the first record;
// the i-th payload has LSN first+i. All-or-nothing: a short or failed
// write poisons the writer (the service treats that as fail-stop), so no
// prefix of the batch is ever acknowledged piecemeal.
func (w *Writer) AppendBatch(payloads [][]byte) (uint64, error) {
	need := 0
	for _, p := range payloads {
		if len(p) > MaxRecordLen {
			return 0, fmt.Errorf("journal: record %d bytes exceeds cap %d", len(p), MaxRecordLen)
		}
		need += frameHeaderLen + len(p)
	}
	if len(payloads) == 0 {
		return 0, fmt.Errorf("journal: empty batch")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.failed(); err != nil {
		return 0, err
	}
	first := w.appended.Load() + 1
	if cap(w.scratch) < need {
		w.scratch = make([]byte, need)
	}
	buf := w.scratch[:need]
	off := 0
	for i, p := range payloads {
		lsn := first + uint64(i)
		binary.LittleEndian.PutUint32(buf[off:off+4], uint32(len(p)))
		binary.LittleEndian.PutUint64(buf[off+8:off+16], lsn)
		binary.LittleEndian.PutUint32(buf[off+4:off+8], frameCRC(buf[off+8:off+16], p))
		copy(buf[off+frameHeaderLen:], p)
		off += frameHeaderLen + len(p)
	}
	if _, err := w.f.Write(buf); err != nil {
		w.poison(err)
		return 0, err
	}
	w.appended.Store(first + uint64(len(payloads)) - 1)
	if w.met != nil {
		w.met.Records.Add(int64(len(payloads)))
		w.met.Bytes.Add(int64(need))
	}
	w.notifyAppend()
	return first, nil
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
// rotation, or shutdown — any event that should make a tail follower
// look again). Subscribe BEFORE checking for new frames, then wait.
func (w *Writer) AppendNotify() <-chan struct{} {
	w.notifyMu.Lock()
	ch := w.notify
	w.notifyAwaited = true
	w.notifyMu.Unlock()
	return ch
}

// Rotations counts Rotate calls; tail followers snapshot it to detect
// that their byte offsets went stale.
func (w *Writer) Rotations() uint64 { return w.rotations.Load() }

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
// cannot resurrect pre-snapshot records behind the snapshot's back.
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
	w.rotations.Add(1)
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
	w.notifyAppend() // unblock tail followers so they observe the close
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

// failed reports the terminal error, if any. Callers hold w.mu.
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
	w.notifyAppend() // tail followers must notice the failure, not hang
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

	magic := make([]byte, len(logMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		// Even the magic is torn; treat as empty (a fresh OpenWriter
		// rewrites it).
		info.Torn = true
		return info, nil
	}
	if string(magic) != string(logMagic) {
		return info, fmt.Errorf("journal: %s is not a gridsched log (bad magic)", path)
	}
	info.ValidSize = int64(len(logMagic))

	// One read(2) per 64 KiB, not two per record; the counter sits above the
	// buffer, so it counts the bytes the scan consumed, not those read ahead.
	r := &countingReader{r: bufio.NewReaderSize(f, 64<<10), n: info.ValidSize}
	header := make([]byte, frameHeaderLen)
	var payload []byte
	lastLSN := uint64(0)
	for {
		if _, err := io.ReadFull(r, header); err != nil {
			info.Torn = !errors.Is(err, io.EOF)
			return info, nil
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		crc := binary.LittleEndian.Uint32(header[4:8])
		lsn := binary.LittleEndian.Uint64(header[8:16])
		if length > MaxRecordLen || lsn <= lastLSN {
			info.Torn = true
			return info, nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			info.Torn = true
			return info, nil
		}
		if frameCRC(header[8:16], payload) != crc {
			info.Torn = true
			return info, nil
		}
		lastLSN = lsn
		info.ValidSize = r.n
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

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
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

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
