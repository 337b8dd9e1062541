package sim

import (
	"errors"
	"fmt"
	"iter"
)

// errKilled is the sentinel panic value used to unwind a process body
// during Kernel.Shutdown. It never escapes the package.
var errKilled = errors.New("sim: process killed")

type resumeMsg struct {
	killed bool
	// Signal outcomes ride in typed fields rather than a boxed struct:
	// boxing an outcome per wake was a measurable allocation on the
	// request/reply hot path.
	sig   bool // the wake comes from a Signal
	fired bool // Signal wakes: fired (true) vs timeout (false)
	val   any
}

// Proc is a simulated process: a coroutine (iter.Pull) the kernel switches
// into and that switches back when it blocks, so exactly one of kernel and
// process runs at any instant, on one thread, without the Go scheduler
// choosing who is next.
//
// Who may call what: the blocking methods (Sleep, Queue.Recv,
// Signal.Wait, Signal.WaitTimeout) take the process they block and must be
// called from inside that process's body — never from an event callback,
// another process or another goroutine. Everything non-blocking (Kernel.Go,
// Schedule, Queue.Push, Signal.Fire, Now) may be called from a body or from
// an event callback alike: it only queues events, which the kernel fires
// after the caller has blocked or returned.
type Proc struct {
	k    *Kernel
	name string
	id   int

	// The two halves of the coroutine: the kernel calls next to run the body
	// until it parks or returns, the body calls yield to park.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	msg   resumeMsg // why the process was resumed; set by wake, read by park

	parked bool // suspended in park, waiting for a wake
	slot   int  // index in Kernel.live
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Go spawns a new process whose body starts at the current virtual time,
// after the events already queued for that time. The body must only block
// through Proc methods.
func (k *Kernel) Go(name string, body func(p *Proc)) *Proc {
	k.procSeq++
	p := &Proc{k: k, name: name, id: k.procSeq}
	k.procs++
	k.Schedule(0, func() {
		p.slot = len(k.live)
		k.live = append(k.live, p)
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			returned := false
			defer func() { p.finish(recover(), returned) }()
			body(p)
			returned = true
		})
		p.next()
	})
	return p
}

// finish is the body's last deferred call: end-of-life bookkeeping, then the
// way the body ended decides what the kernel sees. A return or a Shutdown
// kill ends the coroutine quietly. A panic is raised again under the
// process's name; it leaves the coroutine through next, so it surfaces in
// whoever called Run. runtime.Goexit (t.FailNow and t.Fatal from inside a
// body) cannot be recovered and would otherwise take the kernel's goroutine
// down with it without a word, so it is turned into such a panic too.
func (p *Proc) finish(recovered any, returned bool) {
	k := p.k
	k.procs--
	end := len(k.live) - 1
	last := k.live[end]
	k.live[p.slot], last.slot = last, p.slot
	k.live[end] = nil
	k.live = k.live[:end]
	switch {
	case recovered == errKilled, recovered == nil && returned: //nolint:errorlint // sentinel identity check
		return
	case recovered == nil:
		recovered = "runtime.Goexit called in the body (t.Fatal or t.FailNow belongs on the test's goroutine)"
	}
	panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, recovered))
}

// park suspends the calling process until a wake delivers a resumeMsg.
// It must only be called from the process body, after arranging a wake-up
// (timer event, queue registration, or signal registration).
func (p *Proc) park() resumeMsg {
	p.parked = true
	p.yield(struct{}{})
	p.parked = false
	msg := p.msg
	if msg.killed {
		panic(errKilled)
	}
	return msg
}

// wake resumes a parked process and returns when the process has parked
// again or finished. Must be called from kernel context (inside an event
// callback or from Shutdown).
func (k *Kernel) wake(p *Proc, msg resumeMsg) {
	p.msg = msg
	p.next()
}

// wakeEvent schedules an immediate wake for p carrying msg.
func (k *Kernel) wakeEvent(p *Proc, msg resumeMsg) {
	k.scheduleWake(0, p, msg)
}

// Sleep suspends the process for d seconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.k.scheduleWake(d, p, resumeMsg{})
	p.park()
}

// Shutdown force-terminates every parked process. It must be called after
// Run returns (kernel context). Each parked process unwinds via an internal
// panic that runs its deferred cleanups; its coroutine has ended before
// Shutdown returns, so no goroutines leak.
func (k *Kernel) Shutdown() {
	for {
		// Pick the parked proc with the smallest id for determinism.
		var victim *Proc
		for _, p := range k.live {
			if p.parked && (victim == nil || p.id < victim.id) {
				victim = p
			}
		}
		if victim == nil {
			return
		}
		k.wake(victim, resumeMsg{killed: true})
	}
}
