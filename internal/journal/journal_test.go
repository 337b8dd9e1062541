package journal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gridsched/internal/journal"
)

func openWriter(t *testing.T, path string, mode journal.Mode, lastLSN uint64, validSize int64) *journal.Writer {
	t.Helper()
	w, err := journal.OpenWriter(path, mode, time.Millisecond, lastLSN, validSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func readAll(t *testing.T, path string, afterLSN uint64) (journal.LogInfo, []string) {
	t.Helper()
	var got []string
	info, err := journal.ReadLog(path, afterLSN, func(lsn uint64, payload []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", lsn, payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return info, got
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w := openWriter(t, path, journal.SyncAlways, 0, 0)
	for i := 0; i < 5; i++ {
		lsn, err := w.Append([]byte(fmt.Sprintf("rec%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
		if err := w.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	info, got := readAll(t, path, 0)
	if info.Torn || info.LastLSN != 5 || info.Records != 5 {
		t.Fatalf("info = %+v", info)
	}
	want := []string{"1:rec0", "2:rec1", "3:rec2", "4:rec3", "5:rec4"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}

	// afterLSN skips the covered prefix.
	if _, got := readAll(t, path, 3); len(got) != 2 || got[0] != "4:rec3" {
		t.Fatalf("after 3: %v", got)
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w := openWriter(t, path, journal.SyncNever, 0, 0)
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a partial frame at the tail.
	for _, tail := range [][]byte{
		{0x10}, // short header
		{0x10, 0, 0, 0, 1, 2, 3, 4, 9, 0, 0, 0, 0, 0, 0, 0, 'x'}, // short payload
	} {
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(append([]byte{}, whole...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		info, got := readAll(t, path, 0)
		if !info.Torn || len(got) != 3 || info.LastLSN != 3 {
			t.Fatalf("tail %v: info %+v records %v", tail, info, got)
		}
		// Reopening truncates the garbage and appends cleanly after it.
		w := openWriter(t, path, journal.SyncNever, info.LastLSN, info.ValidSize)
		if _, err := w.Append([]byte("next")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		info, got = readAll(t, path, 0)
		if info.Torn || len(got) != 4 || got[3] != "4:next" {
			t.Fatalf("after reopen: info %+v records %v", info, got)
		}
		// Restore the 3-record file for the next tail variant.
		if err := os.WriteFile(path, whole, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornTailValidSize: ReadLog reads the log through a buffer, far ahead
// of the frame it is validating, but ValidSize counts only the frames it
// validated. With the tail several buffer fills in, a log that ends cleanly
// and each way a tail can fail report the intact prefix to the byte.
func TestTornTailValidSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w := openWriter(t, path, journal.SyncNever, 0, 0)
	const n = 200 // ~200 KB of frames
	for i := 0; i < n; i++ {
		if _, err := w.Append(bytes.Repeat([]byte{byte(i)}, 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header := func(length uint32, lsn uint64) []byte {
		h := binary.LittleEndian.AppendUint32(nil, length)
		h = binary.LittleEndian.AppendUint32(h, 0) // no frame's CRC
		return binary.LittleEndian.AppendUint64(h, lsn)
	}
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"clean end", nil},
		{"short header", []byte{0x10, 0, 0}},
		{"short payload", append(header(1000, n+1), "partial"...)},
		{"bad crc", append(header(4, n+1), "abcd"...)},
		{"stale lsn", append(header(4, n), "abcd"...)},
		{"oversized length", header(journal.MaxRecordLen+1, n+1)},
	} {
		if err := os.WriteFile(path, append(append([]byte{}, whole...), tc.tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		info, got := readAll(t, path, 0)
		if info.Torn != (tc.tail != nil) || len(got) != n || info.LastLSN != n || info.ValidSize != int64(len(whole)) {
			t.Errorf("%s: info %+v after %d records, want ValidSize %d", tc.name, info, len(got), len(whole))
		}
	}
}

// TestTornMagicSelfHeals: a crash during the very first OpenWriter can
// leave a short header; the log must reset itself, not brick recovery.
func TestTornMagicSelfHeals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(path, []byte("GSW"), 0o644); err != nil {
		t.Fatal(err)
	}
	info, got := readAll(t, path, 0)
	if !info.Torn || info.ValidSize != 0 || len(got) != 0 {
		t.Fatalf("info %+v records %v", info, got)
	}
	w := openWriter(t, path, journal.SyncNever, info.LastLSN, info.ValidSize)
	if _, err := w.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, got = readAll(t, path, 0)
	if info.Torn || len(got) != 1 || got[0] != "1:fresh" {
		t.Fatalf("after self-heal: info %+v records %v", info, got)
	}
}

func TestCorruptPayloadStopsScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w := openWriter(t, path, journal.SyncNever, 0, 0)
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the last record's payload: CRC must catch it.
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	info, got := readAll(t, path, 0)
	if !info.Torn || len(got) != 2 || info.LastLSN != 2 {
		t.Fatalf("info %+v records %v", info, got)
	}
}

func TestRotateContinuesLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w := openWriter(t, path, journal.SyncNever, 0, 0)
	if _, err := w.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	lsn, err := w.Append([]byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 3 {
		t.Fatalf("post-rotate lsn = %d, want 3", lsn)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, got := readAll(t, path, 0)
	if info.Torn || len(got) != 1 || got[0] != "3:c" {
		t.Fatalf("info %+v records %v", info, got)
	}
}

func TestAbandonKeepsAppendedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w := openWriter(t, path, journal.SyncBatch, 0, 0)
	if _, err := w.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	w.Abandon() // SIGKILL equivalent: no sync, no snapshot
	info, got := readAll(t, path, 0)
	if info.Torn || len(got) != 1 || got[0] != "1:kept" {
		t.Fatalf("info %+v records %v", info, got)
	}
	if _, err := w.Append([]byte("x")); err == nil {
		t.Fatal("append after abandon succeeded")
	}
}

func TestGroupCommitConcurrentWaiters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	var met journal.Metrics
	w, err := journal.OpenWriter(path, journal.SyncAlways, time.Millisecond, 0, 0, &met)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := w.Append([]byte(fmt.Sprintf("r%d", i)))
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = w.WaitDurable(lsn)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := met.Records.Load(); got != n {
		t.Fatalf("records metric = %d, want %d", got, n)
	}
	// Group commit: far fewer fsyncs than records (usually a handful).
	if got := met.Fsyncs.Load(); got > n {
		t.Fatalf("fsyncs = %d, expected batching below %d", got, n)
	}
	info, got := readAll(t, path, 0)
	if info.Torn || len(got) != n {
		t.Fatalf("info %+v, %d records", info, len(got))
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	if err := journal.WriteFileAtomic(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := journal.WriteFileAtomic(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("two")) {
		t.Fatalf("content %q", data)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]journal.Mode{
		"always": journal.SyncAlways,
		"batch":  journal.SyncBatch,
		"":       journal.SyncBatch,
		"never":  journal.SyncNever,
	} {
		got, err := journal.ParseMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := journal.ParseMode("sometimes"); err == nil {
		t.Fatal("accepted bad mode")
	}
}

// TestAppendGroupFramesConsecutively: a group append must be
// indistinguishable, on disk, from the same records appended one at a time —
// consecutive LSNs, every frame CRC-valid, one durability wait covering the
// lot.
func TestAppendGroupFramesConsecutively(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.log")
	w, err := journal.OpenWriter(path, journal.SyncAlways, 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := w.Append([]byte("a"), []byte("bb"), []byte(""))
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("first LSN %d, want 1", first)
	}
	if lsn, err := w.Append([]byte("solo")); err != nil || lsn != 4 {
		t.Fatalf("append after group: lsn %d, %v (want 4)", lsn, err)
	}
	if err := w.WaitDurable(4); err != nil {
		t.Fatal(err)
	}
	if lsn, err := w.Append(); err != nil || lsn != 0 || w.LastLSN() != 4 {
		t.Fatalf("empty group: lsn %d, %v, log at %d (want 0, nil, 4)", lsn, err, w.LastLSN())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	info, err := journal.ReadLog(path, 0, func(lsn uint64, payload []byte) error {
		got = append(got, string(payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 4 || info.LastLSN != 4 || info.Torn {
		t.Fatalf("read back %+v", info)
	}
	want := []string{"a", "bb", "", "solo"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestOversizedRecordFailsOnlyItsCaller: a payload the log cannot frame is
// refused before it is queued, so the appends racing it — in the live
// service a dispatch or an expiry, which fail-stop on any journal error —
// all succeed, with consecutive LSNs.
func TestOversizedRecordFailsOnlyItsCaller(t *testing.T) {
	w, err := journal.OpenWriter(filepath.Join(t.TempDir(), "wal.log"), journal.SyncNever, 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	huge := make([]byte, journal.MaxRecordLen+1) // never touched: refused by length

	const writers, each = 8, 200
	var wg sync.WaitGroup
	lsns := make(chan uint64, writers*each)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			small := []byte("an expiry-sized record")
			for i := 0; i < each; i++ {
				if g == 0 && i%10 == 0 {
					if _, err := w.Append(small, huge); !errors.Is(err, journal.ErrRecordTooLarge) {
						t.Errorf("oversized group: err = %v, want ErrRecordTooLarge", err)
					}
				}
				lsn, err := w.Append(small)
				if err != nil {
					t.Errorf("ordinary append failed beside an oversized one: %v", err)
					return
				}
				lsns <- lsn
			}
		}()
	}
	wg.Wait()
	close(lsns)
	seen := make(map[uint64]bool)
	for lsn := range lsns {
		seen[lsn] = true
	}
	for lsn := uint64(1); lsn <= writers*each; lsn++ {
		if !seen[lsn] {
			t.Fatalf("lsn %d missing: %d distinct LSNs for %d appends", lsn, len(seen), writers*each)
		}
	}
	if got := w.LastLSN(); got != writers*each {
		t.Fatalf("log holds %d records, want %d (none of the refused groups)", got, writers*each)
	}
}

// TestConcurrentGroupsStayWhole: groups appended from many goroutines at
// once are combined into shared writes, yet each group keeps the
// consecutive LSNs Append returned, and every record reads back under its
// own LSN.
func TestConcurrentGroupsStayWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w := openWriter(t, path, journal.SyncNever, 0, 0)
	const writers, groups = 8, 100
	want := make(map[uint64]string)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < groups; i++ {
				var group [][]byte
				for k := 0; k < 3; k++ {
					group = append(group, fmt.Appendf(nil, "%d-%d-%d", g, i, k))
				}
				first, err := w.Append(group...)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for k, p := range group {
					want[first+uint64(k)] = string(p)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := journal.ReadLog(path, 0, func(lsn uint64, payload []byte) error {
		if want[lsn] != string(payload) {
			t.Errorf("lsn %d holds %q, Append promised %q", lsn, payload, want[lsn])
		}
		return nil
	})
	if err != nil || info.Torn || info.Records != writers*groups*3 || len(want) != info.Records {
		t.Fatalf("read back %+v, %v; %d LSNs handed out", info, err, len(want))
	}
}

// TestAppendNotifyWakesWaiters: AppendNotify's channel closes on append,
// rotation, and shutdown — everything a parked streamer must wake for.
func TestAppendNotifyWakesWaiters(t *testing.T) {
	w, _ := openStreamWriter(t)
	wait := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("notify channel never closed after %s", what)
		}
	}
	ch := w.AppendNotify()
	if _, err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	wait(ch, "append")
	ch = w.AppendNotify()
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	wait(ch, "rotate")
	ch = w.AppendNotify()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wait(ch, "close")
}

// TestAppendWithoutFollowerAllocatesNothing: the notify channel is only
// replaced once somebody took it, so a log nobody streams appends without
// allocating per record (what the writer holds grows by doubling) — and
// one that is streamed still wakes every time.
func TestAppendWithoutFollowerAllocatesNothing(t *testing.T) {
	w, _ := openStreamWriter(t)
	payload := []byte("a record of ordinary size, nobody listening")
	if _, err := w.Append(payload); err != nil { // sizes the frame buffer
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append allocates %v times per record with no follower", n)
	}
	for i := 0; i < 3; i++ {
		ch := w.AppendNotify()
		if again := w.AppendNotify(); again != ch {
			t.Fatal("two subscriptions between appends got different channels")
		}
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ch:
		default:
			t.Fatalf("round %d: append did not close the channel a follower held", i)
		}
	}
}
