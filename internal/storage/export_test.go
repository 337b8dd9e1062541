package storage

import "gridsched/internal/workload"

// Len returns the number of resident files.
func (s *Store) Len() int { return s.count }

// Stats returns a copy of the activity counters.
func (s *Store) Stats() Stats { return s.stats }

// References returns how many past task executions at this site referenced
// f. The count survives eviction: it is site history, not cache state.
func (s *Store) References(f workload.FileID) int {
	if int(f) >= len(s.files) {
		return 0
	}
	return int(s.files[f].refs)
}

// Missing returns the subset of files not resident, preserving order.
func (s *Store) Missing(files []workload.FileID) []workload.FileID {
	return s.AppendMissing(nil, files)
}

// Overlap returns |files ∩ resident| — the paper's overlap cardinality
// between a task and this storage (§2.2).
func (s *Store) Overlap(files []workload.FileID) int {
	n := 0
	for _, f := range files {
		if s.Contains(f) {
			n++
		}
	}
	return n
}

// CommitBatch is CommitBatchInto with fresh buffers.
func (s *Store) CommitBatch(files []workload.FileID) (fetched, evicted []workload.FileID, err error) {
	return s.CommitBatchInto(files, nil, nil)
}

// Resident returns the resident files in recency order (most recent first).
func (s *Store) Resident() []workload.FileID {
	out := make([]workload.FileID, 0, s.count)
	for i := s.head; i != noSlot; i = s.slots[i].next {
		out = append(out, workload.FileID(s.slots[i].file))
	}
	return out
}
