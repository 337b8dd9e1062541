package journal_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gridsched/internal/journal"
)

func openStreamWriter(t *testing.T) (*journal.Writer, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := journal.OpenWriter(path, journal.SyncNever, 0, 0, 0, &journal.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	return w, path
}

// streamed follows w.Frames from after the way a streamer does — asking
// again from the last LSN it got until nothing comes back — and decodes
// each view with the one frame decoder, requiring LSNs consecutive from
// after+1. It returns the frames as "lsn:payload", their bytes, and whether
// the first ask found after+1 held.
func streamed(t testing.TB, w *journal.Writer, after uint64) (got []string, raw []byte, held bool) {
	t.Helper()
	frames, held := w.Frames(after)
	for len(frames) > 0 {
		raw = append(raw, frames...)
		r := journal.NewFrameReader(bufio.NewReader(bytes.NewReader(frames)))
		for {
			lsn, payload, err := r.Next(journal.MaxRecordLen, 0)
			if err == io.EOF {
				break
			}
			if err != nil || lsn != after+1 {
				t.Fatalf("frame after %d: lsn %d, %v", after, lsn, err)
			}
			after = lsn
			got = append(got, fmt.Sprintf("%d:%s", lsn, payload))
		}
		frames, _ = w.Frames(after)
	}
	return got, raw, held
}

func appendAll(t *testing.T, w *journal.Writer, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if _, err := w.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFramesFollowWriter covers what a streamer is handed: every frame
// exactly once, in LSN order, then nothing (held) until the next append.
func TestFramesFollowWriter(t *testing.T) {
	w, _ := openStreamWriter(t)
	appendAll(t, w, "rec-0", "rec-1", "rec-2", "rec-3", "rec-4")
	got, _, held := streamed(t, w, 0)
	if want := []string{"1:rec-0", "2:rec-1", "3:rec-2", "4:rec-3", "5:rec-4"}; !held || !reflect.DeepEqual(got, want) {
		t.Fatalf("frames after 0: %v (held %v), want %v", got, held, want)
	}
	if got, _, held := streamed(t, w, 5); !held || len(got) != 0 {
		t.Fatalf("caught up: %v (held %v), want nothing, held", got, held)
	}
	appendAll(t, w, "late")
	if got, _, _ := streamed(t, w, 5); !reflect.DeepEqual(got, []string{"6:late"}) {
		t.Fatalf("after a late append: %v", got)
	}
}

// TestFramesResumeAfter pins the after contract: frames at or below it are
// not handed out again.
func TestFramesResumeAfter(t *testing.T) {
	w, _ := openStreamWriter(t)
	appendAll(t, w, "a", "b", "c", "d")
	if got, _, _ := streamed(t, w, 2); !reflect.DeepEqual(got, []string{"3:c", "4:d"}) {
		t.Fatalf("resume after 2: %v", got)
	}
}

// TestFramesAcrossRotations: a rotation keeps what the log held as the
// previous interval, so a streamer behind it is still served; the next one
// lets it go, and only then is the streamer told "not held". The current
// interval is byte for byte what the file holds.
func TestFramesAcrossRotations(t *testing.T) {
	w, path := openStreamWriter(t)
	appendAll(t, w, "a", "b", "c")
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if got, _, held := streamed(t, w, 0); !held || len(got) != 3 {
		t.Fatalf("one rotation behind: %v (held %v), want all three", got, held)
	}
	appendAll(t, w, "d", "e")
	if got, _, _ := streamed(t, w, 1); !reflect.DeepEqual(got, []string{"2:b", "3:c", "4:d", "5:e"}) {
		t.Fatalf("across the rotation: %v", got)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, "f")
	for after := uint64(0); after < 3; after++ {
		if _, _, held := streamed(t, w, after); held {
			t.Fatalf("two rotations behind (after %d): still held", after)
		}
	}
	if got, _, held := streamed(t, w, 3); !held || !reflect.DeepEqual(got, []string{"4:d", "5:e", "6:f"}) {
		t.Fatalf("after 3: %v (held %v)", got, held)
	}
	_, raw, _ := streamed(t, w, 5)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, file[len("GSWAL001"):]) {
		t.Fatalf("the current interval is not the file's bytes:\n%x\n%x", raw, file)
	}
}

// TestFramesHoldTheLogAtOpen: a log that is not empty at open — recovery
// could not compact it, or a standby restarted — is held as if this writer
// had written it, its valid prefix only; a torn tail is not. A log whose
// LSNs skip is not one the writer wrote: it is not held, and a streamer is
// sent to the checkpoint instead.
func TestFramesHoldTheLogAtOpen(t *testing.T) {
	w, path := openStreamWriter(t)
	appendAll(t, w, "x", "y", "z")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	info, _ := readAll(t, path, 0)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w = openWriter(t, path, journal.SyncNever, info.LastLSN, info.ValidSize)
	defer w.Close()
	got, raw, held := streamed(t, w, 0)
	if !held || !reflect.DeepEqual(got, []string{"1:x", "2:y", "3:z"}) || !bytes.Equal(raw, file[len("GSWAL001"):info.ValidSize]) {
		t.Fatalf("held at open: %v (held %v), %x; want the valid prefix of %x", got, held, raw, file)
	}
	appendAll(t, w, "after")
	if got, _, _ := streamed(t, w, 3); !reflect.DeepEqual(got, []string{"4:after"}) {
		t.Fatalf("appended after open: %v", got)
	}

	skips := filepath.Join(t.TempDir(), "wal.log")
	log := journal.AppendFrame(journal.AppendFrame([]byte("GSWAL001"), 1, []byte("a")), 3, []byte("c"))
	if err := os.WriteFile(skips, log, 0o644); err != nil {
		t.Fatal(err)
	}
	info, _ = readAll(t, skips, 0)
	w = openWriter(t, skips, journal.SyncNever, info.LastLSN, info.ValidSize)
	defer w.Close()
	if _, _, held := streamed(t, w, 0); held {
		t.Fatal("a log whose LSNs skip is held")
	}
	if got, _, held := streamed(t, w, 3); !held || len(got) != 0 {
		t.Fatalf("past the skipping log: %v (held %v)", got, held)
	}
}

// TestFramesWhileAppendingAndRotating follows a writer the way a streamer
// does while another goroutine appends and rotates: every view decodes to
// consecutive LSNs whose payloads are still the bytes appended, however the
// segments grew or rotated under it. Run it under -race: a view is read
// while the writer appends past it.
func TestFramesWhileAppendingAndRotating(t *testing.T) {
	const records, every = 2000, 97
	w, _ := openStreamWriter(t)
	var appendErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lsn := 1; lsn <= records && appendErr == nil; lsn++ {
			if _, appendErr = w.Append([]byte(fmt.Sprint(lsn))); appendErr == nil && lsn%every == 0 {
				appendErr = w.Rotate()
			}
		}
	}()
	for after := uint64(0); after < records; {
		notify := w.AppendNotify()
		frames, held := w.Frames(after)
		if !held {
			after = w.LastLSN() // two rotations behind: a checkpoint would have it
			continue
		}
		if len(frames) == 0 {
			select {
			case <-notify:
			case <-done:
				if appendErr != nil {
					t.Fatal(appendErr)
				}
			}
			continue
		}
		r := journal.NewFrameReader(bufio.NewReader(bytes.NewReader(frames)))
		for {
			lsn, payload, err := r.Next(journal.MaxRecordLen, 0)
			if err == io.EOF {
				break
			}
			if err != nil || lsn != after+1 || string(payload) != fmt.Sprint(lsn) {
				t.Fatalf("after %d: frame lsn %d %q, %v", after, lsn, payload, err)
			}
			after = lsn
		}
	}
	<-done
	if appendErr != nil {
		t.Fatal(appendErr)
	}
}
