package faultinject

import "sync"

// Steps kills a multi-step durable operation at a chosen step boundary —
// the in-process stand-in for a kill -9 landing between two of its steps.
// The operation reports every boundary it reaches through Reached (the
// test wires that in as a hook); at the armed boundary Reached returns
// ErrInjected and the operation must abandon everything after it. The
// test then crashes the process state (e.g. Service.CrashForTest) and
// recovers from what the completed steps left on disk.
type Steps struct {
	mu    sync.Mutex
	armed string
	seen  []string
}

// KillAt arms the boundary named step; "" disarms.
func (s *Steps) KillAt(step string) {
	s.mu.Lock()
	s.armed = step
	s.mu.Unlock()
}

// Reached records the boundary and fails it when armed. A kill is
// one-shot: whatever runs afterwards (recovery's own checkpoint, say)
// passes the same boundary unharmed.
func (s *Steps) Reached(step string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen = append(s.seen, step)
	if s.armed != "" && step == s.armed {
		s.armed = ""
		return ErrInjected
	}
	return nil
}

// Seen lists every boundary reported so far, in order.
func (s *Steps) Seen() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.seen...)
}
