// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of events.
// Events scheduled for the same virtual time fire in scheduling order, so a
// simulation driven by a fixed seed replays identically.
//
// On top of the raw event API, the package offers a process model (Proc) so
// that actors (workers, servers) can be written as straight-line pull loops.
// A process is a coroutine made with iter.Pull: the kernel switches into it
// from the event that resumes it, and it switches back when it blocks or
// returns. The switch is a direct hand-over on the thread Run was called on
// — no channel, no run queue, no wake-up of another thread — so running a
// simulation costs the Go scheduler nothing however many processes it has,
// several kernels can run side by side on as many cores without taking
// each other's, and one kernel's order of execution is fixed by its event
// queue alone.
//
// A kernel and its processes are one logical thread. Run, RunUntil and
// Shutdown are called from outside the kernel's processes and never
// concurrently; event callbacks run inside Run; process bodies run inside
// the event that started or resumed them. The Proc documentation says which
// calls belong where.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds.
type Time = float64

// Forever is a sentinel meaning "run until no events remain".
const Forever Time = math.MaxFloat64

// Event is a scheduled callback. It can be cancelled before it fires.
//
// Events carrying a process wake-up (wakeProc != nil) are kernel-internal:
// no reference ever escapes, so they are drawn from and returned to a free
// list instead of being allocated per wake, and they carry the resume
// payload in typed fields instead of a closure. External events (Schedule /
// ScheduleAt) are never pooled — their creators may hold references and
// Cancel them at any time, including after they fire.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	index    int // heap index, -1 once popped

	wakeProc *Proc // non-nil: pooled process-wake event
	wakeMsg  resumeMsg
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() { e.canceled = true }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Kernel is a single-threaded discrete-event simulator. It is not safe for
// concurrent use from multiple goroutines; its processes are coroutines of
// the goroutine that calls Run, not goroutines of their own.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap

	procs   int // live (not yet finished) processes
	procSeq int
	live    []*Proc // started and not finished, in no particular order

	eventPool []*Event // recycled wake events (see Event)

	// stats
	fired uint64
}

// NewKernel returns an empty kernel at time 0.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventsFired returns the number of events executed so far.
func (k *Kernel) EventsFired() uint64 { return k.fired }

// Schedule registers fn to run after delay seconds of virtual time.
// A negative delay is an error in the caller; it panics to surface the bug.
func (k *Kernel) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return k.ScheduleAt(k.now+delay, fn)
}

// ScheduleAt registers fn to run at absolute virtual time at.
func (k *Kernel) ScheduleAt(at Time, fn func()) *Event {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule in the past: at=%v now=%v", at, k.now))
	}
	k.seq++
	e := &Event{at: at, seq: k.seq, fn: fn}
	heap.Push(&k.events, e)
	return e
}

// scheduleWake queues a pooled process-wake event after delay seconds.
func (k *Kernel) scheduleWake(delay Time, p *Proc, msg resumeMsg) {
	var e *Event
	if n := len(k.eventPool); n > 0 {
		e = k.eventPool[n-1]
		k.eventPool = k.eventPool[:n-1]
	} else {
		e = &Event{}
	}
	k.seq++
	*e = Event{at: k.now + delay, seq: k.seq, wakeProc: p, wakeMsg: msg}
	heap.Push(&k.events, e)
}

// Unschedule cancels e and, if it has not fired yet, removes it from the
// event queue immediately. Cancel alone leaves a dead entry in the queue
// until its timestamp comes up; callers that cancel and reschedule at high
// frequency (netsim's completion events) use Unschedule so the queue holds
// only live events. Unscheduling an already-fired or already-removed event
// is a no-op.
func (k *Kernel) Unschedule(e *Event) {
	e.canceled = true
	if e.index >= 0 {
		heap.Remove(&k.events, e.index)
	}
}

// Reschedule moves e, an event Schedule or ScheduleAt returned, to fire
// after delay seconds from now, whether it is still queued, was cancelled or
// unscheduled, or has already fired. The outcome — the sequence number drawn
// and so the firing order among same-time events included — is that of
// Unschedule(e) followed by Schedule(delay, fn) with e's callback, without
// allocating a new event; it is for an owner that moves one event many times
// (netsim's flow completions).
func (k *Kernel) Reschedule(e *Event, delay Time) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	k.seq++
	e.at, e.seq, e.canceled = k.now+delay, k.seq, false
	if e.index >= 0 {
		heap.Fix(&k.events, e.index)
	} else {
		heap.Push(&k.events, e)
	}
}

// Run executes events in timestamp order until the queue is empty. It
// returns the final virtual time.
func (k *Kernel) Run() Time { return k.RunUntil(Forever) }

// RunUntil executes events with timestamp <= limit. Events scheduled beyond
// the limit remain queued; the clock advances to the last executed event (or
// stays put if none ran).
func (k *Kernel) RunUntil(limit Time) Time {
	for len(k.events) > 0 {
		next := k.events[0]
		if next.at > limit {
			break
		}
		heap.Pop(&k.events)
		if next.canceled {
			continue
		}
		k.now = next.at
		k.fired++
		if p := next.wakeProc; p != nil {
			// Recycle before waking: the woken process may schedule new
			// wakes, and nothing else can reference a pooled event.
			msg := next.wakeMsg
			*next = Event{index: -1}
			k.eventPool = append(k.eventPool, next)
			k.wake(p, msg)
			continue
		}
		next.fn()
	}
	return k.now
}
