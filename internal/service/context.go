// Worker context: per-slot capability tags plus fixed-point EWMAs of task
// duration and failure rate, folded server-side from report traffic. The
// store is keyed by worker SLOT (core.WorkerRef), not by registration id:
// registrations are liveness state that dies with the process, while the
// slot a worker occupies is stable across restarts, which is what lets
// recovery reproduce the EWMAs exactly.
//
// Determinism contract: the EWMAs are a pure function of the journal
// stream. An observation is folded exactly when a journal record is
// written for the event (or always, on an unjournaled service), and the
// folded sample is computed only from fields the record carries — the
// millisecond timestamps journaled with the dispatch and the report. In
// particular cancelled-ness is deliberately ignored: a late success report
// for a cancelled replica folds as a success, live and in replay, because
// the record stream cannot distinguish it. Integer fixed-point arithmetic
// (no floats) keeps the fold bit-exact across recovery.
package service

import (
	"math"
	"slices"
	"sort"
	"sync"

	"gridsched/internal/core"
)

const (
	// ewmaShift is the fixed-point fraction width of the EWMAs.
	ewmaShift = 16
	// ewmaOne is 1.0 in fixed point.
	ewmaOne = int64(1) << ewmaShift
	// ewmaAlphaShift sets the smoothing factor alpha = 1/8: each new
	// sample moves the accumulator 1/8 of the way toward it.
	ewmaAlphaShift = 3
)

// ewmaFold folds one fixed-point sample into a fixed-point accumulator.
// The first sample seeds the accumulator outright so a worker's estimate
// is meaningful from its first observation. Right shift of the (possibly
// negative) delta is arithmetic in Go, so the fold is deterministic.
func ewmaFold(acc, sample int64, first bool) int64 {
	if first {
		return sample
	}
	return acc + ((sample - acc) >> ewmaAlphaShift)
}

// slotStats is one worker slot's accumulated context.
type slotStats struct {
	tags     []string
	durEwma  int64 // EWMA of task duration, milliseconds << ewmaShift
	failEwma int64 // EWMA of the failure indicator, fraction << ewmaShift
	samples  int64 // successful duration samples folded
	events   int64 // outcome events folded (successes + failures)
}

// telemetry is the worker-context store. Leaf lock: nothing is acquired
// while tel.mu is held, and it may be taken under the service lock or the
// registry.
type telemetry struct {
	mu    sync.Mutex
	slots [][]slotStats // [site][worker]
}

func newTelemetry(topo Topology) *telemetry {
	t := &telemetry{slots: make([][]slotStats, topo.Sites)}
	for i := range t.slots {
		t.slots[i] = make([]slotStats, topo.WorkersPerSite)
	}
	return t
}

func (t *telemetry) slot(ref core.WorkerRef) *slotStats {
	if ref.Site < 0 || ref.Site >= len(t.slots) {
		return nil
	}
	row := t.slots[ref.Site]
	if ref.Worker < 0 || ref.Worker >= len(row) {
		return nil
	}
	return &row[ref.Worker]
}

// setTags records the capability tags of the worker currently occupying
// the slot. Tags are liveness state (a re-registered worker brings its
// own), so they are not journaled and not part of the determinism
// contract.
func (t *telemetry) setTags(ref core.WorkerRef, tags []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.slot(ref); s != nil {
		s.tags = slices.Clone(tags)
	}
}

// observeSuccess folds a successful completion. durMillis is the
// journaled report timestamp minus the journaled grant timestamp; hasDur
// is false when the grant timestamp is unknown (pre-upgrade journal
// tails), in which case only the failure EWMA and the event count move.
// Negative durations (impossible from one journal stream, guarded anyway)
// clamp to zero.
func (t *telemetry) observeSuccess(ref core.WorkerRef, durMillis int64, hasDur bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slot(ref)
	if s == nil {
		return
	}
	if hasDur {
		if durMillis < 0 {
			durMillis = 0
		}
		s.durEwma = ewmaFold(s.durEwma, durMillis<<ewmaShift, s.samples == 0)
		s.samples++
	}
	s.failEwma = ewmaFold(s.failEwma, 0, s.events == 0)
	s.events++
}

// observeFailure folds a failed or expired execution.
func (t *telemetry) observeFailure(ref core.WorkerRef) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slot(ref)
	if s == nil {
		return
	}
	s.failEwma = ewmaFold(s.failEwma, ewmaOne, s.events == 0)
	s.events++
}

// WorkerContext implements core.ContextSource over the store, converting
// the fixed-point accumulators to the float view the wrapper scores with.
func (t *telemetry) WorkerContext(ref core.WorkerRef) (core.WorkerContext, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slot(ref)
	if s == nil || (s.events == 0 && len(s.tags) == 0) {
		return core.WorkerContext{}, false
	}
	return core.WorkerContext{
		Tags:           slices.Clone(s.tags),
		MeanTaskMillis: float64(s.durEwma) / float64(ewmaOne),
		FailureRate:    float64(s.failEwma) / float64(ewmaOne),
		Samples:        s.samples,
		Events:         s.events,
	}, true
}

// snapshotWorkers renders every slot with observations for the service
// snapshot, sorted by (site, worker) so snapshot bytes are deterministic.
func (t *telemetry) snapshotWorkers() []snapWorker {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []snapWorker
	for site := range t.slots {
		for wk := range t.slots[site] {
			s := &t.slots[site][wk]
			if s.events == 0 {
				continue
			}
			out = append(out, snapWorker{
				Site: site, Worker: wk,
				DurEwma: s.durEwma, FailEwma: s.failEwma,
				Samples: s.samples, Events: s.events,
			})
		}
	}
	return out
}

// restoreWorkers loads snapshot telemetry; journal tail records fold on
// top of it in LSN order (recovery.go).
func (t *telemetry) restoreWorkers(ws []snapWorker) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range ws {
		w := &ws[i]
		s := t.slot(core.WorkerRef{Site: w.Site, Worker: w.Worker})
		if s == nil {
			continue // snapshot from a larger topology; drop the slot
		}
		s.durEwma, s.failEwma = w.DurEwma, w.FailEwma
		s.samples, s.events = w.Samples, w.Events
	}
}

// workerSlot is one slot's telemetry as /metrics serves it: its mean task
// time in seconds, its failure rate, and how many durations the mean is over.
type workerSlot struct {
	site, worker      int
	meanSec, failRate float64
	samples           int64
}

// observed lists every slot that has observations, in (site, worker) order.
func (t *telemetry) observed() []workerSlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []workerSlot
	for site := range t.slots {
		for wk := range t.slots[site] {
			if s := &t.slots[site][wk]; s.events > 0 {
				out = append(out, workerSlot{site, wk,
					float64(s.durEwma) / float64(ewmaOne) / 1000.0, float64(s.failEwma) / float64(ewmaOne), s.samples})
			}
		}
	}
	return out
}

// durRing is a per-job ring of recent completed-task durations in
// milliseconds, backing the straggler percentile. Liveness state only: it
// is guarded by the service lock, never journaled, and starts empty
// after recovery (post-crash there are no live leases to speculate on, so
// nothing is lost).
type durRing struct {
	buf []int64
	n   int // total samples ever added (ring holds min(n, cap))
	idx int
}

// durRingCap bounds the per-job sample memory; a percentile over the most
// recent samples tracks the job's current phase better than its history.
const durRingCap = 256

func (r *durRing) add(d int64) {
	if d < 0 {
		d = 0
	}
	if r.buf == nil {
		r.buf = make([]int64, 0, 64)
	}
	if len(r.buf) < durRingCap {
		r.buf = append(r.buf, d)
	} else {
		r.buf[r.idx] = d
		r.idx = (r.idx + 1) % durRingCap
	}
	r.n++
}

// mean returns the average of the ring's samples, false on an empty ring.
func (r *durRing) mean() (int64, bool) {
	if len(r.buf) == 0 {
		return 0, false
	}
	sum := int64(0)
	for _, d := range r.buf {
		sum += d
	}
	return sum / int64(len(r.buf)), true
}

// percentile returns the p-quantile (nearest-rank) of the ring, false on
// an empty ring. p outside (0, 1] — including NaN — is clamped to 1 (the
// max), so a misconfigured percentile can only make speculation rarer.
func (r *durRing) percentile(p float64) (int64, bool) {
	if len(r.buf) == 0 {
		return 0, false
	}
	if math.IsNaN(p) || p <= 0 || p > 1 {
		p = 1
	}
	sorted := make([]int64, len(r.buf))
	copy(sorted, r.buf)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank], true
}

// A lease is a straggler once it has aged past speculationFactor multiples
// of its job's speculationPercentile task duration; a job with fewer than
// speculationMinSamples observations (cold start) is never speculated.
const (
	speculationPercentile = 0.95
	speculationFactor     = 2
	speculationMinSamples = 3
)

// shouldSpeculate decides whether a lease of the given age is a straggler
// against the job's duration distribution. Cold start is absolute: with
// fewer than minSamples observations there is no distribution to be slow
// against, and the answer is always no. The threshold floor of 1ms is the
// zero-duration guard — a job whose observed tasks all completed within
// the clock tick must not speculate every in-flight lease on sight.
func shouldSpeculate(ageMillis int64, ring *durRing, pct, factor float64, minSamples int) bool {
	if ring == nil || ring.n < minSamples || len(ring.buf) == 0 {
		return false
	}
	p, ok := ring.percentile(pct)
	if !ok {
		return false
	}
	if math.IsNaN(factor) || factor < 1 {
		factor = 1
	}
	threshold := int64(float64(p) * factor)
	if threshold < 1 {
		threshold = 1
	}
	return ageMillis > threshold
}

// tagsSatisfy reports whether every required tag is present in have.
func tagsSatisfy(requires, have []string) bool {
	for _, want := range requires {
		if !slices.Contains(have, want) {
			return false
		}
	}
	return true
}

// maxTags and maxTagLen bound worker tags and job requires lists.
const (
	maxTags   = 16
	maxTagLen = 64
)

// validTag mirrors tenant-name hygiene: tags reach JSON status payloads
// and log lines, so the charset is conservative.
func validTag(tag string) bool {
	if len(tag) == 0 || len(tag) > maxTagLen {
		return false
	}
	for i := 0; i < len(tag); i++ {
		c := tag[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

func validateTags(kind string, tags []string) error {
	if len(tags) > maxTags {
		return errf(400, "service: too many %s (%d > %d)", kind, len(tags), maxTags)
	}
	for _, tag := range tags {
		if !validTag(tag) {
			return errf(400, "service: bad %s %q (1-%d chars of [A-Za-z0-9._-])", kind, tag, maxTagLen)
		}
	}
	return nil
}
