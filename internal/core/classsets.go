package core

import (
	"math/bits"

	"gridsched/internal/workload"
)

// bitset is a set of small non-negative integers, one bit each.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) unset(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// next returns the lowest member >= from, or -1 when there is none.
func (b bitset) next(from int) int {
	w := from >> 6
	if w >= len(b) {
		return -1
	}
	if masked := b[w] &^ (1<<(uint(from)&63) - 1); masked != 0 {
		return w<<6 + bits.TrailingZeros64(masked)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}

// prev returns the highest member <= from, or -1 when there is none.
func (b bitset) prev(from int) int {
	if from < 0 {
		return -1
	}
	w := from >> 6
	if masked := b[w] & (^uint64(0) >> (63 - uint(from)&63)); masked != 0 {
		return w<<6 + 63 - bits.LeadingZeros64(masked)
	}
	for w--; w >= 0; w-- {
		if b[w] != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(b[w])
		}
	}
	return -1
}

// classSets partitions a set of task ids into integer classes and keeps
// every class in ascending id order: a class is a bitset over the ids, so a
// member changes class in two bit flips and the lowest ids of a class read
// straight off its words — the order every "ties go to the lower id" rule of
// the schedulers asks for. Both schedulers file tasks by how many of their
// files a site holds: WorkerCentric's siteIndex the pending tasks (its
// id-ordered classes; see usesHeap), StorageAffinity the tasks a draft or a
// steal may still pick.
//
// Invariants: task t is a member of at most one class; counts[c] is the
// population of sets[c]; nonEmpty has bit c set iff class c has a member. A
// siteIndex keeps its heap classes' bits in nonEmpty too (markHeapClass), so
// one mask orders all of its classes.
type classSets struct {
	sets     []bitset // per class: its members, allocated with the first one
	counts   []int32  // per class: population
	nonEmpty bitset
	ids      int // members are in [0, ids)
}

func newClassSets(classes, ids int) classSets {
	return classSets{
		sets:     make([]bitset, classes),
		counts:   make([]int32, classes),
		nonEmpty: newBitset(classes),
		ids:      ids,
	}
}

// reset empties every class, keeping the allocated bitsets.
func (cs *classSets) reset() {
	for _, set := range cs.sets {
		clear(set)
	}
	clear(cs.counts)
	clear(cs.nonEmpty)
}

// add makes t, a member of no class, a member of class c.
func (cs *classSets) add(c int, t workload.TaskID) {
	if cs.sets[c] == nil {
		cs.sets[c] = newBitset(cs.ids)
	}
	cs.sets[c].set(int(t))
	if cs.counts[c] == 0 {
		cs.nonEmpty.set(c)
	}
	cs.counts[c]++
}

// remove takes t out of class c, which it is a member of.
func (cs *classSets) remove(c int, t workload.TaskID) {
	cs.sets[c].unset(int(t))
	cs.counts[c]--
	if cs.counts[c] == 0 {
		cs.nonEmpty.unset(c)
	}
}

// has reports whether t is a member of class c.
func (cs *classSets) has(c int, t workload.TaskID) bool {
	return cs.sets[c] != nil && cs.sets[c].has(int(t))
}

// markHeapClass records whether class c, whose members the caller keeps in
// a structure of its own, has any.
func (cs *classSets) markHeapClass(c int, nonEmpty bool) {
	if nonEmpty {
		cs.nonEmpty.set(c)
	} else {
		cs.nonEmpty.unset(c)
	}
}

// maxClass returns the highest non-empty class, or -1 if all are empty.
func (cs *classSets) maxClass() int { return cs.nonEmpty.prev(len(cs.counts) - 1) }

// nextClassBelow returns the highest non-empty class strictly below c, or -1.
func (cs *classSets) nextClassBelow(c int) int { return cs.nonEmpty.prev(c - 1) }

// nextClassAbove returns the lowest non-empty class strictly above c, or -1.
func (cs *classSets) nextClassAbove(c int) int { return cs.nonEmpty.next(c + 1) }

// lowest appends the k lowest ids of class c to out.
func (cs *classSets) lowest(c, k int, out []workload.TaskID) []workload.TaskID {
	for wi, w := range cs.sets[c] {
		for ; w != 0 && k > 0; k-- {
			out = append(out, workload.TaskID(wi<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
		if k == 0 {
			break
		}
	}
	return out
}

// firstFrom returns the first member of the non-empty class c at or after
// id from, wrapping round to the lowest id past the end.
func (cs *classSets) firstFrom(c, from int) workload.TaskID {
	t := cs.sets[c].next(from)
	if t < 0 {
		t = cs.sets[c].next(0)
	}
	return workload.TaskID(t)
}
