package core

import (
	"fmt"
	"math/rand"

	"gridsched/internal/workload"
)

// BulkReplayer is optionally implemented by schedulers that can take a
// recorded history without deciding it again. Between BeginReplay and
// EndReplay the scheduler accepts ReplayAssign, NoteBatch, OnTaskComplete
// and OnExecutionFailed — the calls the history made, in its order — and
// only notes what each one leaves behind; EndReplay then derives in one
// pass everything the calls would have maintained step by step, and moves
// the scheduler's random stream to where the history left it. NextFor must
// not be called in between.
//
// Draws is that position: how many values the scheduler has taken from its
// random source so far. A history's owner records it next to the history
// (gridschedd: per running job, in the checkpoint manifest) and hands it
// back to EndReplay.
//
// What a bulk replay checks is less than what re-asking checks. It refuses
// an assignment at an unattached site or of a task that is not pending, and
// a draw count the history cannot have reached; it does not learn whether
// the scheduler would have made the recorded decisions. Whoever replays a
// longer history on top (gridschedd: the journal tail, by re-asking) finds
// out at the first decision that comes out differently.
type BulkReplayer interface {
	Replayer
	Draws() uint64
	BeginReplay()
	// EndReplay leaves the replay mode with the random stream at draws. On
	// error the scheduler is not usable.
	EndReplay(draws uint64) error
}

var _ BulkReplayer = (*WorkerCentric)(nil)

// maxDrawsPerAssign bounds how far EndReplay will advance the random stream
// for each assignment it was given. An assignment takes one value, or a few
// when rand.Intn rejects one (for any task count that fits in memory, less
// than one time in a thousand); the bound only has to keep a corrupt count
// from spinning the fast-forward for hours.
const maxDrawsPerAssign = 64

// countingSource is a rand.Source that counts the values taken from it.
// The values are src's own, so wrapping changes no decision.
type countingSource struct {
	src rand.Source
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// Draws implements BulkReplayer.
func (s *WorkerCentric) Draws() uint64 { return s.src.n }

// BeginReplay implements BulkReplayer.
func (s *WorkerCentric) BeginReplay() {
	s.replaying = true
	s.replayed = 0
}

// ReplayAssign drives s into the state it was in after it assigned task id
// to the worker at ref: through s's own ReplayAssign when it is a Replayer,
// otherwise by asking NextFor again and requiring the same decision. A
// mismatch means the recorded history and the scheduler disagree, which a
// journal replay treats as corruption.
func ReplayAssign(s Scheduler, id workload.TaskID, at WorkerRef) error {
	if r, ok := s.(Replayer); ok {
		return r.ReplayAssign(id, at)
	}
	return reask(s, id, at)
}

// reask puts the recorded request to s again and verifies the answer.
func reask(s Scheduler, id workload.TaskID, at WorkerRef) error {
	task, status := s.NextFor(at)
	if status != Assigned {
		return fmt.Errorf("core: replay: scheduler returned status %d for task %d at %+v", status, id, at)
	}
	if task.ID != id {
		return fmt.Errorf("core: replay: scheduler assigned task %d, journal says %d (at %+v)", task.ID, id, at)
	}
	return nil
}

// ReplayAssign implements Replayer: the transition NextFor made when it
// assigned task id to the worker at ref. Inside a bulk replay the task just
// leaves the pending set. Outside one the scheduler is asked again and must
// decide the same — which also takes the same random draws.
func (s *WorkerCentric) ReplayAssign(id workload.TaskID, at WorkerRef) error {
	if !s.replaying {
		return reask(s, id, at)
	}
	if _, ok := s.indexes[at.Site]; !ok {
		return fmt.Errorf("core: replay: task %d assigned at unattached site %d", id, at.Site)
	}
	if int(id) < 0 || int(id) >= len(s.alive) || !s.alive[id] {
		return fmt.Errorf("core: replay: task %d assigned at %+v is not pending", id, at)
	}
	s.alive[id] = false
	s.pendingN--
	s.replayed++
	return nil
}

// EndReplay implements BulkReplayer: every built site's overlap and refSum
// recomputed from its resident set, the pending set filed into every site's
// classes, the order tree rebuilt from the pending set, the random stream
// advanced to draws.
func (s *WorkerCentric) EndReplay(draws uint64) error {
	if !s.replaying {
		return fmt.Errorf("core: EndReplay outside a replay")
	}
	switch have := s.src.n; {
	case draws < have:
		return fmt.Errorf("core: replay: %d random draws recorded, %d already taken", draws, have)
	case draws-have > maxDrawsPerAssign*s.replayed:
		return fmt.Errorf("core: replay: %d random draws recorded for %d assignments (at most %d each)", draws-have, s.replayed, maxDrawsPerAssign)
	}
	for _, x := range s.indexList {
		x.m.recompute(s.w)
		x.rebuild()
	}
	s.order.init(s.alive)
	for s.src.n < draws {
		s.src.Int63()
	}
	s.replaying = false
	return nil
}
