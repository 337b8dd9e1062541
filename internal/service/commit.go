// The commit stage: the funnel between the lock-striped shards and the
// single totally-ordered write-ahead log. Shards (and the dispatch
// coordinator, for order-sensitive records) enqueue encoded records
// while holding their own locks; the stage serializes them into the WAL
// and batches whatever accumulates while a write is in flight into one
// AppendBatch — one write(2) for the whole group. The enqueue returns
// once the record is appended (process-crash durable, LSN assigned), so
// write-ahead error semantics are preserved exactly; fsync — machine-crash
// durability — stays behind Writer.WaitDurable, which callers invoke
// after releasing every service lock. No shard ever holds its lock
// across an fsync.
package service

import (
	"errors"
	"fmt"
	"sync"

	"gridsched/internal/journal"
)

// errRecordTooLarge refuses a payload the log could not frame. It fails
// the caller that brought it and nobody else: the payload never joins a
// batch.
var errRecordTooLarge = errors.New("journal record exceeds the log's record cap")

// maxRetainedBatch is the largest batch buffer the stage keeps for reuse;
// one that a submit record grew past it is dropped after its write.
const maxRetainedBatch = 64 << 10

// commitBatch is a run of queued records: their payloads back to back,
// and where each ends.
type commitBatch struct {
	buf  []byte
	ends []int
}

// commitStage batches concurrent journal appends. Leaf lock: the stage
// never acquires any other service lock.
//
// Every append to w goes through the stage and the log numbers records
// consecutively, so the n-th record ever enqueued gets LSN base+n. That is
// all a waiter has to remember — there is no per-request state to
// allocate — and a batch's write checks it.
type commitStage struct {
	w    *journal.Writer
	base uint64 // w's last LSN when the stage was built

	mu       sync.Mutex
	cond     *sync.Cond
	open     commitBatch // enqueued, not yet handed to a write
	enqueued uint64      // records ever enqueued
	written  uint64      // of those, how many the log has
	// err is the failed write that ended the stage. The log's own failures
	// are terminal (a poisoned or closed writer refuses everything after),
	// so the records queued behind a failed batch fail with it.
	err     error
	writing bool // a batch write is in flight

	// The writing goroutine's, while writing is set: the batch buffers it
	// will swap back in as the next open batch, and its payload views.
	spare commitBatch
	views [][]byte
}

func newCommitStage(w *journal.Writer) *commitStage {
	c := &commitStage{w: w, base: w.LastLSN()}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// appendAll enqueues a group of payloads atomically and blocks until the
// whole group is in the log, returning the FIRST payload's LSN. The
// payloads are copied; the caller's buffers are its own again on return.
// Requests that arrive while a batch write is in flight coalesce into the
// next batch; the first waiter of that batch becomes its writer (flat
// combining — no dedicated goroutine to stall behind). FIFO: LSN order
// equals enqueue order, which is what lets callers fix a record's WAL
// position by enqueueing inside the relevant critical section. Because the
// group enters the queue under one lock hold and every writer drains the
// entire queue into a single AppendBatch, the group's LSNs are guaranteed
// consecutive (first, first+1, …) and land in the log with one write(2) —
// this is what lets a batched report amortize one WAL append (and one
// fsync, via a single WaitDurable on the last LSN) across k outcomes while
// each record still gets its own totally-ordered LSN.
func (c *commitStage) appendAll(payloads ...[]byte) (uint64, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	for _, p := range payloads {
		if len(p) > journal.MaxRecordLen {
			return 0, fmt.Errorf("%w: %d bytes, cap %d", errRecordTooLarge, len(p), journal.MaxRecordLen)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, c.err
	}
	for _, p := range payloads {
		c.open.buf = append(c.open.buf, p...)
		c.open.ends = append(c.open.ends, len(c.open.buf))
	}
	first := c.enqueued + 1
	c.enqueued += uint64(len(payloads))
	// Waiting on the last record suffices for the whole group: any batch
	// that drains it necessarily drained everything enqueued before it.
	for last := c.enqueued; c.written < last; {
		if c.err != nil {
			return 0, c.err
		}
		if c.writing {
			c.cond.Wait()
			continue
		}
		// Become the writer for everything queued so far (the group included).
		batch, upto := c.open, c.enqueued
		c.open = commitBatch{buf: c.spare.buf[:0], ends: c.spare.ends[:0]}
		c.writing = true
		c.mu.Unlock()

		views := c.views[:0]
		start := 0
		for _, end := range batch.ends {
			views = append(views, batch.buf[start:end])
			start = end
		}
		lsn, err := c.w.AppendBatch(views)
		clear(views) // drop the references into batch.buf
		c.views = views
		if cap(batch.buf) > maxRetainedBatch {
			batch.buf = nil
		}

		c.mu.Lock()
		c.spare = batch
		c.writing = false
		switch {
		case err != nil:
			c.err = err
		case lsn != c.base+c.written+1:
			panicf("service: commit stage expected lsn %d, log assigned %d", c.base+c.written+1, lsn)
		default:
			c.written = upto
		}
		c.cond.Broadcast()
	}
	return c.base + first, nil
}
