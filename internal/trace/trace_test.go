package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

func TestJSONWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONWriter(&buf)
	j.Record(Event{At: 1.5, Kind: BatchServed, Site: 2, Worker: -1, Files: 7})
	j.Record(Event{At: 2.5, Kind: TaskCompleted, Site: 2, Worker: 0, Task: 9})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var got []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	if len(got) != 2 || got[0].Files != 7 || got[1].Task != 9 {
		t.Fatalf("round trip = %+v", got)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) {
	return 0, bytes.ErrTooLarge
}

func TestJSONWriterStickyError(t *testing.T) {
	j := NewJSONWriter(failWriter{})
	for i := 0; i < 10000; i++ { // overflow the bufio buffer to force a write
		j.Record(Event{At: float64(i), Kind: TaskAssigned})
	}
	if err := j.Flush(); err == nil {
		t.Fatal("expected sticky error")
	}
}

func TestMultiFansOut(t *testing.T) {
	var a, b counter
	m := Multi{&a, &b}
	m.Record(Event{At: 1, Kind: WorkerDown})
	if a != 1 || b != 1 {
		t.Fatalf("fan out: %d, %d", a, b)
	}
}

// counter counts the events it is handed.
type counter int

func (c *counter) Record(Event) { *c++ }
