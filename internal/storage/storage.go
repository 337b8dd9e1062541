// Package storage implements a site's data-server storage: a bounded file
// cache with LRU (or FIFO) replacement, plus the per-file past-reference
// counters the paper's Combined metric consumes (§4.2).
//
// Capacity is counted in files, matching the paper's equal-file-size
// assumption (§2.2, assumption 8); byte-based accounting is the same
// mechanism scaled by the constant file size.
//
// The implementation is dense and allocation-free on the hot path: the
// recency order is an intrusive doubly-linked list over a slot array, and
// per-file state (slot, reference count, batch pinning) lives in an array
// indexed by FileID that grows on demand. Everything a commit reads or
// writes about one file sits in one 12-byte record, and likewise about one
// slot: a batch touches ~80 files scattered over the id space, and with a
// separate array per field each of them cost three cache misses where it
// now costs one. Earlier revisions used container/list plus maps, whose
// per-insert allocations and hashing dominated batch commits in simulation
// sweeps.
package storage

import (
	"fmt"

	"gridsched/internal/workload"
)

// Policy selects the replacement policy.
type Policy int

// Replacement policies. The paper does not name one; LRU is the default and
// FIFO exists for the eviction ablation.
const (
	LRU Policy = iota + 1
	FIFO
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Stats counts cache activity since creation.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Inserts   int64
}

const noSlot = int32(-1)

// Store is a bounded file cache. It is not safe for concurrent use; in the
// simulator all access is serialized by the kernel, and in the service by
// the service lock.
type Store struct {
	capacity int
	policy   Policy
	stats    Stats

	// Intrusive recency list over slots; head = most recently used. The
	// slot array grows on demand up to capacity, so a store whose working
	// set never fills its (possibly huge) capacity stays small.
	slots      []slotState // per allocated slot
	head, tail int32
	count      int
	freeHead   int32 // free-slot stack threaded through next

	// Per-file state, indexed by FileID and grown on demand.
	files []fileState
	epoch uint32
}

// slotState is one slot of the recency list.
type slotState struct {
	next, prev int32
	file       int32 // the resident FileID
}

// fileState is what the store knows about one file.
type fileState struct {
	slot  int32  // slot holding the file, or noSlot
	refs  int32  // past references; survives eviction (site history)
	epoch uint32 // pin marker: == Store.epoch while the file is in the batch
}

// New returns an empty store holding at most capacity files.
func New(capacity int, policy Policy) (*Store, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("storage: capacity = %d", capacity)
	}
	if policy != LRU && policy != FIFO {
		return nil, fmt.Errorf("storage: unknown policy %v", policy)
	}
	return &Store{
		capacity: capacity,
		policy:   policy,
		head:     noSlot,
		tail:     noSlot,
		freeHead: noSlot,
	}, nil
}

// Reserve pre-sizes the per-file state for a universe of numFiles files
// (ids in [0, numFiles)). Purely an allocation hint: the arrays grow on
// demand anyway, but a caller that knows the workload's file universe
// avoids the growth reallocations entirely.
func (s *Store) Reserve(numFiles int) {
	if numFiles > len(s.files) {
		s.grow(workload.FileID(numFiles - 1))
	}
}

// grow extends the per-file array to cover f, at least doubling to keep
// reallocation amortized.
func (s *Store) grow(f workload.FileID) {
	if int(f) < len(s.files) {
		return
	}
	want := int(f) + 1
	if n := 2 * len(s.files); n > want {
		want = n
	}
	files := make([]fileState, want)
	copy(files, s.files)
	for i := len(s.files); i < want; i++ {
		files[i].slot = noSlot
	}
	s.files = files
}

// Contains reports whether f is resident.
func (s *Store) Contains(f workload.FileID) bool {
	return int(f) < len(s.files) && s.files[f].slot != noSlot
}

// AppendMissing appends the non-resident subset of files to dst (order
// preserved) and returns the extended slice.
func (s *Store) AppendMissing(dst, files []workload.FileID) []workload.FileID {
	for _, f := range files {
		if !s.Contains(f) {
			dst = append(dst, f)
		}
	}
	return dst
}

// unlink removes slot i from the recency list.
func (s *Store) unlink(i int32) {
	next, prev := s.slots[i].next, s.slots[i].prev
	if prev != noSlot {
		s.slots[prev].next = next
	} else {
		s.head = next
	}
	if next != noSlot {
		s.slots[next].prev = prev
	} else {
		s.tail = prev
	}
}

// pushFront makes slot i the most recently used.
func (s *Store) pushFront(i int32) {
	s.slots[i].prev = noSlot
	s.slots[i].next = s.head
	if s.head != noSlot {
		s.slots[s.head].prev = i
	}
	s.head = i
	if s.tail == noSlot {
		s.tail = i
	}
}

// moveToFront refreshes slot i's recency.
func (s *Store) moveToFront(i int32) {
	if s.head == i {
		return
	}
	s.unlink(i)
	s.pushFront(i)
}

// insert makes f resident in a fresh slot at the front, allocating a new
// slot while fewer than capacity exist.
func (s *Store) insert(f workload.FileID) {
	var i int32
	if s.freeHead != noSlot {
		i = s.freeHead
		s.freeHead = s.slots[i].next
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, slotState{})
	}
	s.slots[i].file = int32(f)
	s.files[f].slot = i
	s.count++
	s.pushFront(i)
	s.stats.Inserts++
}

// CommitBatchInto makes every file in files resident and counts one
// reference per file, evicting non-batch files as needed. It appends the
// files that were fetched (previously missing) to fetched and the files
// evicted to make room to evicted (pass them length-zero; the returned
// slices alias them). The batch itself is never evicted: a task needs all
// its inputs resident at once (assumption 5), so a batch larger than
// capacity is an error.
func (s *Store) CommitBatchInto(files, fetched, evicted []workload.FileID) ([]workload.FileID, []workload.FileID, error) {
	if len(files) > s.capacity {
		return nil, nil, fmt.Errorf("storage: batch of %d exceeds capacity %d", len(files), s.capacity)
	}
	s.epoch++
	// Pass 1: pin (and count) the whole batch before any eviction below
	// can run — the batch itself must never be evicted.
	for _, f := range files {
		s.grow(f)
		st := &s.files[f]
		st.epoch = s.epoch
		st.refs++
	}
	for _, f := range files {
		if i := s.files[f].slot; i != noSlot {
			s.stats.Hits++
			if s.policy == LRU {
				s.moveToFront(i)
			}
			continue
		}
		s.stats.Misses++
		fetched = append(fetched, f)
		// Make room, skipping batch members.
		for s.count >= s.capacity {
			victim := s.evictOne(true)
			if victim < 0 {
				return nil, nil, fmt.Errorf("storage: cannot evict, all %d resident files belong to the batch", s.count)
			}
			evicted = append(evicted, victim)
		}
		s.insert(f)
	}
	return fetched, evicted, nil
}

// Preload makes f resident without counting a task reference — the entry
// point for proactive data replication (a server push, not a task access).
// It reports whether the file was actually added (false if already
// resident) and any file evicted to make room.
func (s *Store) Preload(f workload.FileID) (added bool, evicted []workload.FileID) {
	s.grow(f)
	if s.Contains(f) {
		return false, nil
	}
	for s.count >= s.capacity {
		victim := s.evictOne(false)
		if victim < 0 {
			return false, evicted // cannot happen with capacity >= 1
		}
		evicted = append(evicted, victim)
	}
	s.insert(f)
	return true, evicted
}

// evictOne removes the least-recently-used (or oldest, under FIFO) file,
// skipping current-batch members when pinBatch is set. It returns -1 if
// every resident file is pinned.
func (s *Store) evictOne(pinBatch bool) workload.FileID {
	for i := s.tail; i != noSlot; i = s.slots[i].prev {
		f := workload.FileID(s.slots[i].file)
		if pinBatch && s.files[f].epoch == s.epoch {
			continue
		}
		s.unlink(i)
		s.files[f].slot = noSlot
		s.count--
		s.slots[i].next = s.freeHead
		s.freeHead = i
		s.stats.Evictions++
		return f
	}
	return -1
}
