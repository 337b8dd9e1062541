package sim

// Signal is a one-shot broadcast condition. Processes block in Wait (or
// WaitTimeout) until Fire is called; Fire releases all current and future
// waiters. Signals are the reply channel of choice for request/response
// interactions between processes.
type Signal struct {
	k     *Kernel
	fired bool
	val   any

	// Waiters in registration (= wake) order; timers[i] is waiter i's
	// timeout event (nil if none). The parallel slices replace an earlier
	// map: signals are created on hot request/reply paths and nearly
	// always have zero or one waiter, so a map allocation per signal and
	// hashing per operation were pure overhead.
	order  []*Proc
	timers []*Event
}

// NewSignal returns an unfired signal bound to k.
func NewSignal(k *Kernel) *Signal {
	return &Signal{k: k}
}

// Fired reports whether Fire has been called.
func (s *Signal) Fired() bool { return s.fired }

// Reset returns a fired signal to the unfired state so it can be reused,
// saving an allocation on request/reply hot loops. Resetting a signal that
// still has waiters (fired or not) panics: their wake is in flight and a
// reuse would tangle two generations of waiters.
func (s *Signal) Reset() {
	if len(s.order) > 0 {
		panic("sim: Reset with waiters registered")
	}
	s.fired = false
	s.val = nil
}

// waiterIndex returns p's index among the registered waiters, or -1.
func (s *Signal) waiterIndex(p *Proc) int {
	for i, w := range s.order {
		if w == p {
			return i
		}
	}
	return -1
}

// dropWaiter removes waiter i preserving registration order.
func (s *Signal) dropWaiter(i int) {
	s.order = append(s.order[:i], s.order[i+1:]...)
	s.timers = append(s.timers[:i], s.timers[i+1:]...)
}

// Fire marks the signal fired with val and schedules every waiter to resume
// at the current virtual time, in registration order. Firing twice panics:
// a one-shot signal with two producers is a logic error worth surfacing.
func (s *Signal) Fire(val any) {
	if s.fired {
		panic("sim: signal fired twice")
	}
	s.fired = true
	s.val = val
	for i, p := range s.order {
		if timer := s.timers[i]; timer != nil {
			timer.Cancel()
		}
		s.k.wakeEvent(p, resumeMsg{sig: true, fired: true, val: val})
	}
	s.order = s.order[:0]
	s.timers = s.timers[:0]
}

// Wait blocks p until the signal fires, returning the fired value.
// If the signal already fired, it returns immediately.
func (s *Signal) Wait(p *Proc) any {
	if s.fired {
		return s.val
	}
	s.order = append(s.order, p)
	s.timers = append(s.timers, nil)
	msg := p.park()
	if !msg.sig {
		panic("sim: signal delivered value of unexpected type")
	}
	return msg.val
}

// WaitTimeout blocks p until the signal fires or d seconds elapse.
// It reports whether the signal fired (true) or the timeout won (false).
// This is the primitive behind interruptible work such as cancellable task
// computation.
func (s *Signal) WaitTimeout(p *Proc, d Time) (any, bool) {
	if s.fired {
		return s.val, true
	}
	timer := s.k.Schedule(d, func() {
		i := s.waiterIndex(p)
		if i < 0 {
			return // signal beat the timer
		}
		s.dropWaiter(i)
		s.k.wake(p, resumeMsg{sig: true, fired: false})
	})
	s.order = append(s.order, p)
	s.timers = append(s.timers, timer)
	msg := p.park()
	if !msg.sig {
		panic("sim: signal delivered value of unexpected type")
	}
	return msg.val, msg.fired
}
