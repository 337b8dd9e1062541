package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestProcSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var wake Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(3.5)
		wake = p.Now()
	})
	k.Run()
	if wake != 3.5 {
		t.Fatalf("woke at %v, want 3.5", wake)
	}
	if k.procs != 0 {
		t.Fatalf("live procs = %d, want 0", k.procs)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	k := NewKernel()
	var trace []string
	for _, name := range []string{"a", "b"} {
		name := name
		k.Go(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, name)
				p.Sleep(1)
			}
		})
	}
	k.Run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestQueuePushRecv(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	var got []int
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Recv(p))
		}
	})
	k.Go("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(1)
			q.Push(i * 10)
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got = %v, want [10 20 30]", got)
	}
}

func TestQueueBuffersWhenNoWaiter(t *testing.T) {
	k := NewKernel()
	q := NewQueue[string](k)
	q.Push("x")
	q.Push("y")
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2", q.Len())
	}
	var got []string
	k.Go("late", func(p *Proc) {
		got = append(got, q.Recv(p), q.Recv(p))
	})
	k.Run()
	if got[0] != "x" || got[1] != "y" {
		t.Fatalf("got = %v", got)
	}
}

func TestQueueMultipleWaitersFIFO(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Go("w", func(p *Proc) {
			v := q.Recv(p)
			order = append(order, i*100+v)
		})
	}
	k.Go("producer", func(p *Proc) {
		p.Sleep(1)
		for v := 1; v <= 3; v++ {
			q.Push(v)
		}
	})
	k.Run()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	// Waiter 0 gets value 1, waiter 1 gets 2, waiter 2 gets 3.
	for i, want := range []int{1, 102, 203} {
		if order[i] != want {
			t.Fatalf("order = %v, want [1 102 203]", order)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	woken := 0
	for i := 0; i < 4; i++ {
		k.Go("waiter", func(p *Proc) {
			if v := s.Wait(p); v != "go" {
				t.Errorf("signal value = %v", v)
			}
			woken++
		})
	}
	k.Go("firer", func(p *Proc) {
		p.Sleep(2)
		s.Fire("go")
	})
	k.Run()
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
}

func TestSignalWaitAfterFireReturnsImmediately(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	s.Fire(7)
	var got any
	var at Time
	k.Go("late", func(p *Proc) {
		got = s.Wait(p)
		at = p.Now()
	})
	k.Run()
	if got != 7 || at != 0 {
		t.Fatalf("got=%v at=%v", got, at)
	}
}

func TestSignalWaitTimeoutFires(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	var fired bool
	var at Time
	k.Go("waiter", func(p *Proc) {
		_, fired = s.WaitTimeout(p, 10)
		at = p.Now()
	})
	k.Go("firer", func(p *Proc) {
		p.Sleep(3)
		s.Fire(nil)
	})
	k.Run()
	if !fired || at != 3 {
		t.Fatalf("fired=%v at=%v, want true at 3", fired, at)
	}
}

func TestSignalWaitTimeoutExpires(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	var fired bool
	var at Time
	k.Go("waiter", func(p *Proc) {
		_, fired = s.WaitTimeout(p, 2)
		at = p.Now()
	})
	k.Run()
	if fired || at != 2 {
		t.Fatalf("fired=%v at=%v, want false at 2", fired, at)
	}
	// A later Fire must not try to wake the already-resumed proc.
	s.Fire(nil)
	k.Run()
}

func TestSignalDoubleFirePanics(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	s.Fire(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double fire")
		}
	}()
	s.Fire(nil)
}

func TestShutdownReleasesParkedProcs(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	cleaned := 0
	for i := 0; i < 3; i++ {
		k.Go("stuck", func(p *Proc) {
			defer func() { cleaned++ }()
			q.Recv(p) // never pushed
		})
	}
	k.Run()
	if k.procs != 3 {
		t.Fatalf("live procs = %d before shutdown, want 3", k.procs)
	}
	k.Shutdown()
	if k.procs != 0 {
		t.Fatalf("live procs = %d after shutdown, want 0", k.procs)
	}
	if cleaned != 3 {
		t.Fatalf("deferred cleanups ran %d times, want 3", cleaned)
	}
}

func TestProcBodyPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Go("bomb", func(p *Proc) {
		panic("boom")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("process panic did not propagate to Run")
		}
	}()
	k.Run()
}

func TestProcSpawnsProc(t *testing.T) {
	k := NewKernel()
	var childAt Time
	k.Go("parent", func(p *Proc) {
		p.Sleep(5)
		k.Go("child", func(c *Proc) {
			c.Sleep(1)
			childAt = c.Now()
		})
	})
	k.Run()
	if childAt != 6 {
		t.Fatalf("child woke at %v, want 6", childAt)
	}
}

// TestRequestReplyPattern exercises the mailbox+signal idiom used by the
// grid actors: client pushes a request carrying a reply signal, server
// serves requests one at a time.
func TestRequestReplyPattern(t *testing.T) {
	type req struct {
		work  Time
		reply *Signal
	}
	k := NewKernel()
	q := NewQueue[req](k)
	k.Go("server", func(p *Proc) {
		for {
			r := q.Recv(p)
			p.Sleep(r.work) // serialized service
			r.reply.Fire(p.Now())
		}
	})
	var done []Time
	for i := 0; i < 3; i++ {
		k.Go("client", func(p *Proc) {
			r := req{work: 10, reply: NewSignal(k)}
			q.Push(r)
			done = append(done, r.reply.Wait(p).(Time))
		})
	}
	k.Run()
	k.Shutdown()
	if len(done) != 3 {
		t.Fatalf("done = %v", done)
	}
	// Service is serialized: completions at 10, 20, 30.
	for i, want := range []Time{10, 20, 30} {
		if done[i] != want {
			t.Fatalf("done = %v, want [10 20 30]", done)
		}
	}
}

// TestShutdownLeavesNoGoroutineBehind parks one process in each blocking
// call, shuts the kernel down, and requires every body's deferred cleanup to
// have run exactly once and the goroutine count to be back where it was: a
// process is a coroutine, and a coroutine that is never resumed again would
// otherwise stay behind for the life of the program.
func TestShutdownLeavesNoGoroutineBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	q := NewQueue[int](k)
	never := NewSignal(k)
	cleaned := make(map[string]int)
	park := func(name string, block func(p *Proc)) {
		k.Go(name, func(p *Proc) {
			defer func() { cleaned[name]++ }()
			block(p)
			t.Errorf("%s: returned from a call nothing should have woken", name)
		})
	}
	park("sleep", func(p *Proc) { p.Sleep(1e9) })
	park("recv", func(p *Proc) { q.Recv(p) })
	park("wait", func(p *Proc) { never.Wait(p) })
	park("wait-timeout", func(p *Proc) { never.WaitTimeout(p, 1e9) })
	k.Go("returns", func(p *Proc) {
		defer func() { cleaned["returns"]++ }()
		p.Sleep(1)
	})
	k.RunUntil(10)
	if k.procs != 4 {
		t.Fatalf("live procs = %d before shutdown, want 4", k.procs)
	}
	k.Shutdown()
	if k.procs != 0 {
		t.Fatalf("live procs = %d after shutdown, want 0", k.procs)
	}
	for _, name := range []string{"sleep", "recv", "wait", "wait-timeout", "returns"} {
		if cleaned[name] != 1 {
			t.Errorf("%s: deferred cleanup ran %d times, want 1", name, cleaned[name])
		}
	}
	// An ended coroutine's goroutine is gone by the time the switch back to
	// the kernel returns; nothing here has to be waited for.
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before, %d after Run + Shutdown", before, after)
	}
}

// runExpectingPanic runs k and returns the value Run panicked with.
func runExpectingPanic(t *testing.T, k *Kernel) (panicked any) {
	t.Helper()
	defer func() {
		if panicked = recover(); panicked == nil {
			t.Fatal("Run returned; want the process's failure raised as a panic")
		}
	}()
	k.Run()
	return nil
}

// TestProcFailureSurfacesInRun: a body that panics, and one that ends its
// goroutine with runtime.Goexit — which is what t.FailNow and t.Fatal do —
// both come out of Run as a panic naming the process, rather than being
// swallowed or leaving the kernel waiting for a switch that never comes.
// Afterwards nothing is left mid-switch: another kernel runs normally.
func TestProcFailureSurfacesInRun(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name, want string
		fail       func()
	}{
		{"panic", "boom", func() { panic("boom") }},
		{"goexit", "runtime.Goexit", runtime.Goexit},
	} {
		k := NewKernel()
		reached := false
		k.Go("bystander", func(p *Proc) { p.Sleep(5) })
		k.Go("bomb-"+tc.name, func(p *Proc) {
			p.Sleep(1)
			tc.fail()
			reached = true
		})
		msg := fmt.Sprint(runExpectingPanic(t, k))
		if !strings.Contains(msg, `"bomb-`+tc.name+`"`) || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: Run panicked with %q; want the process name and %q in it", tc.name, msg, tc.want)
		}
		if reached {
			t.Errorf("%s: the body ran on past its failure", tc.name)
		}
		if k.procs != 1 {
			t.Errorf("%s: live procs = %d, want the bystander alone", tc.name, k.procs)
		}
		k.Shutdown()

		var woke Time
		fresh := NewKernel()
		fresh.Go("after", func(p *Proc) {
			p.Sleep(2)
			woke = p.Now()
		})
		fresh.Run()
		if woke != 2 {
			t.Errorf("%s: a fresh kernel's process woke at %v, want 2", tc.name, woke)
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before, %d after", before, after)
	}
}

// TestSpawnedProcStartsAfterQueuedSameTimeEvents pins where a process
// spawned from inside a process starts: at the spawner's virtual time,
// behind the events already queued for that time and ahead of later ones.
func TestSpawnedProcStartsAfterQueuedSameTimeEvents(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.Go("parent", func(p *Proc) {
		p.Sleep(5)
		k.Schedule(0, func() { trace = append(trace, "queued-before") })
		k.Go("child", func(c *Proc) {
			trace = append(trace, fmt.Sprintf("child@%v", c.Now()))
		})
		k.Schedule(0, func() { trace = append(trace, "queued-after") })
		trace = append(trace, "parent-continues")
	})
	k.Run()
	want := []string{"parent-continues", "queued-before", "child@5", "queued-after"}
	if !slices.Equal(trace, want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
}

// soupTrace runs a seeded request/reply soup — 200 client processes with
// random think times calling 8 serialized servers, a quarter of the calls
// with a timeout that sometimes wins — and returns one record per process
// resume: the virtual time, the kernel's event sequence number at that
// moment and the process id.
func soupTrace(seed int64) []string {
	type request struct {
		work  Time
		reply *Signal
	}
	k := NewKernel()
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	resumed := func(p *Proc) {
		trace = append(trace, fmt.Sprintf("%v %d %d", k.now, k.seq, p.id))
	}
	servers := make([]*Queue[request], 8)
	for i := range servers {
		q := NewQueue[request](k)
		servers[i] = q
		k.Go(fmt.Sprintf("server-%d", i), func(p *Proc) {
			for {
				r := q.Recv(p)
				resumed(p)
				p.Sleep(r.work)
				resumed(p)
				r.reply.Fire(p.Now())
			}
		})
	}
	for i := 0; i < 200; i++ {
		k.Go(fmt.Sprintf("client-%d", i), func(p *Proc) {
			for call := 0; call < 5; call++ {
				p.Sleep(Time(rng.Intn(50)) / 10)
				resumed(p)
				r := request{work: Time(1+rng.Intn(20)) / 10, reply: NewSignal(k)}
				servers[rng.Intn(len(servers))].Push(r)
				if rng.Intn(4) == 0 {
					r.reply.WaitTimeout(p, Time(rng.Intn(100))/10)
				} else {
					r.reply.Wait(p)
				}
				resumed(p)
			}
		})
	}
	k.Run()
	k.Shutdown()
	return trace
}

// TestProcessSoupReplaysIdentically: which process runs next is decided by
// the event queue alone, so the soup's resume trace is the same on every
// run, whatever GOMAXPROCS is (CI runs this package at -cpu 1,4), and —
// the digest below was recorded on the channel-switched kernel this one
// replaced — whatever carries the switch.
func TestProcessSoupReplaysIdentically(t *testing.T) {
	a, b := soupTrace(7), soupTrace(7)
	if !slices.Equal(a, b) {
		t.Fatal("two runs of one seed resumed processes in different orders")
	}
	if len(a) < 200*5*2 {
		t.Fatalf("trace holds %d resumes; the soup did not run", len(a))
	}
	h := fnv.New64a()
	for _, rec := range a {
		h.Write([]byte(rec))
		h.Write([]byte{'\n'})
	}
	const want = 0x2494270a1bc337cf
	if got := h.Sum64(); got != want {
		t.Fatalf("trace digest %#x over %d resumes, want %#x: the order of events moved", got, len(a), uint64(want))
	}
	if slices.Equal(a, soupTrace(8)) {
		t.Fatal("another seed produced the same trace; the trace does not depend on the soup")
	}
}
