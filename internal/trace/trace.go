// Package trace records structured simulation timelines: every scheduling,
// staging, computation, and failure event of a run, for debugging
// schedulers and for post-hoc analysis beyond the aggregate metrics.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Kind classifies timeline events.
type Kind string

// Event kinds emitted by the grid engine.
const (
	TaskAssigned  Kind = "task-assigned"  // scheduler handed the task to a worker
	BatchEnqueued Kind = "batch-enqueued" // worker queued its file request
	BatchServed   Kind = "batch-served"   // data server finished staging the batch
	ComputeStart  Kind = "compute-start"
	TaskCompleted Kind = "task-completed"
	TaskCancelled Kind = "task-cancelled" // replica interrupted after another completed
	TaskFailed    Kind = "task-failed"    // execution lost to worker churn
	WorkerDown    Kind = "worker-down"
	WorkerUp      Kind = "worker-up"
	// FileReplicated marks a proactive replica push arriving at a site.
	FileReplicated Kind = "file-replicated"
)

// Event is one timeline record. Fields not meaningful for a kind are zero.
type Event struct {
	At     float64 `json:"at"` // virtual seconds
	Kind   Kind    `json:"kind"`
	Site   int     `json:"site"`
	Worker int     `json:"worker"`
	Task   int64   `json:"task,omitempty"`
	// Files carries the batch size for staging events (missing files for
	// BatchServed).
	Files int `json:"files,omitempty"`
}

// Tracer consumes events. Only the simulator records them, so an
// implementation may assume single-threaded delivery.
type Tracer interface {
	Record(Event)
}

// JSONWriter streams events as JSON lines.
type JSONWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

var _ Tracer = (*JSONWriter)(nil)

// NewJSONWriter wraps w; call Flush when done.
func NewJSONWriter(w io.Writer) *JSONWriter {
	bw := bufio.NewWriter(w)
	return &JSONWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Record implements Tracer. The first encoding error sticks and is
// reported by Flush.
func (j *JSONWriter) Record(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(e)
}

// Flush drains the buffer and returns the first error seen.
func (j *JSONWriter) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return fmt.Errorf("trace: %w", j.err)
	}
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// Multi fans events out to several tracers.
type Multi []Tracer

var _ Tracer = Multi(nil)

// Record implements Tracer.
func (m Multi) Record(e Event) {
	for _, t := range m {
		t.Record(e)
	}
}
