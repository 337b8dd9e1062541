// The commit stage: the funnel between the lock-striped shards and the
// single totally-ordered write-ahead log. Shards (and the dispatch
// coordinator, for order-sensitive records) enqueue marshaled records
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
	"sync"

	"gridsched/internal/journal"
)

// commitReq is one record waiting for its batch to reach the log.
type commitReq struct {
	payload []byte
	lsn     uint64
	err     error
	done    bool
}

// commitStage batches concurrent journal appends. Leaf lock: the stage
// never acquires any other service lock.
type commitStage struct {
	w *journal.Writer

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*commitReq
	writing bool // a batch write is in flight
}

func newCommitStage(w *journal.Writer) *commitStage {
	c := &commitStage{w: w}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// appendAll enqueues a group of payloads atomically and blocks until the
// whole group is in the log, returning the FIRST payload's LSN. Requests
// that arrive while a batch write is in flight coalesce into the next
// batch; the first waiter of that batch becomes its writer (flat combining
// — no dedicated goroutine to stall behind). FIFO: LSN order equals
// enqueue order, which is what lets callers fix a record's WAL position by
// enqueueing inside the relevant critical section. Because the group
// enters the queue under one lock hold and every writer drains the entire
// queue into a single AppendBatch, the group's LSNs are guaranteed
// consecutive (first, first+1, …) and land in the log with one write(2) —
// this is what lets a batched report amortize one WAL append (and one
// fsync, via a single WaitDurable on the last LSN) across k outcomes while
// each record still gets its own totally-ordered LSN.
func (c *commitStage) appendAll(payloads ...[]byte) (uint64, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	reqs := make([]*commitReq, len(payloads))
	for i, p := range payloads {
		reqs[i] = &commitReq{payload: p}
	}
	c.mu.Lock()
	c.queue = append(c.queue, reqs...)
	// Waiting on the last request suffices for the whole group: any batch
	// that drains it necessarily drained everything enqueued before it.
	req := reqs[len(reqs)-1]
	for !req.done {
		if c.writing {
			c.cond.Wait()
			continue
		}
		// Become the writer for everything queued so far (including req).
		batch := c.queue
		c.queue = nil
		c.writing = true
		c.mu.Unlock()

		payloads := make([][]byte, len(batch))
		for i, r := range batch {
			payloads[i] = r.payload
		}
		first, err := c.w.AppendBatch(payloads)

		c.mu.Lock()
		for i, r := range batch {
			if err == nil {
				r.lsn = first + uint64(i)
			}
			r.err = err
			r.done = true
		}
		c.writing = false
		c.cond.Broadcast()
	}
	lsn, err := reqs[0].lsn, reqs[0].err
	c.mu.Unlock()
	return lsn, err
}
