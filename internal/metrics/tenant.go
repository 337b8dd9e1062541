package metrics

// ShareWindow tracks which key each of the last N observations belonged to
// and reports every key's fraction of the window. The gridschedd fair-share
// arbiter feeds it one observation per dispatch, keyed by tenant, and the
// per-tenant "achieved share" gauges at /metrics read it back.
//
// Not safe for concurrent use: the service observes and reads under its own
// mutex, matching the rest of its dispatch state.
type ShareWindow struct {
	ring   []string
	counts map[string]int
	next   int
	filled bool
}

// NewShareWindow returns a window over the last size observations.
func NewShareWindow(size int) *ShareWindow {
	if size < 1 {
		size = 1
	}
	return &ShareWindow{ring: make([]string, size), counts: make(map[string]int)}
}

// Observe records one event for key, evicting the oldest observation once
// the window is full.
func (w *ShareWindow) Observe(key string) {
	if w.filled {
		old := w.ring[w.next]
		if w.counts[old] <= 1 {
			delete(w.counts, old)
		} else {
			w.counts[old]--
		}
	}
	w.ring[w.next] = key
	w.counts[key]++
	w.next++
	if w.next == len(w.ring) {
		w.next, w.filled = 0, true
	}
}

// Len reports how many observations the window currently holds.
func (w *ShareWindow) Len() int {
	if w.filled {
		return len(w.ring)
	}
	return w.next
}

// Share reports key's fraction of the current window (0 when empty).
func (w *ShareWindow) Share(key string) float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	return float64(w.counts[key]) / float64(n)
}
