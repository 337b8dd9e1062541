package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, d := range []Time{5, 1, 3, 2, 4} {
		d := d
		k.Schedule(d, func() { got = append(got, k.Now()) })
	}
	end := k.Run()
	if end != 5 {
		t.Fatalf("end time = %v, want 5", end)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestKernelSameTimeEventsFireInScheduleOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(7, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time order violated at %d: got %v", i, got[:i+1])
		}
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.Schedule(1, func() { fired = true })
	e.Cancel()
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.canceled {
		t.Fatal("not marked canceled after Cancel")
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var trace []Time
	k.Schedule(1, func() {
		trace = append(trace, k.Now())
		k.Schedule(2, func() { trace = append(trace, k.Now()) })
	})
	k.Run()
	want := []Time{1, 3}
	if len(trace) != 2 || trace[0] != want[0] || trace[1] != want[1] {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i), func() { count++ })
	}
	k.RunUntil(5)
	if count != 5 {
		t.Fatalf("count = %d after RunUntil(5), want 5", count)
	}
	if len(k.events) != 5 {
		t.Fatalf("pending = %d, want 5", len(k.events))
	}
	k.Run()
	if count != 10 {
		t.Fatalf("count = %d after Run, want 10", count)
	}
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative delay")
		}
	}()
	NewKernel().Schedule(-1, func() {})
}

// TestKernelDeterministicReplay runs a randomized event cascade twice with
// the same seed and requires identical traces.
func TestKernelDeterministicReplay(t *testing.T) {
	run := func(seed int64) []Time {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		var trace []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, k.Now())
			if depth >= 5 {
				return
			}
			n := rng.Intn(3)
			for i := 0; i < n; i++ {
				k.Schedule(Time(rng.Float64()), func() { spawn(depth + 1) })
			}
		}
		for i := 0; i < 20; i++ {
			k.Schedule(Time(rng.Float64()*10), func() { spawn(0) })
		}
		k.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of non-negative delays, Run fires them all in
// non-decreasing time order and ends at the max delay.
func TestKernelOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		k := NewKernel()
		var fired []Time
		var max Time
		for _, r := range raw {
			d := Time(r) / 100
			if d > max {
				max = d
			}
			k.Schedule(d, func() { fired = append(fired, k.Now()) })
		}
		end := k.Run()
		if len(fired) != len(raw) {
			return false
		}
		if len(raw) > 0 && end != max {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRescheduleMatchesUnscheduleThenSchedule drives two kernels through one
// random script of timers being set, moved, cancelled and left to fire —
// delays drawn from a handful of values, so same-time ties are the rule —
// one moving a timer with Unschedule + Schedule, the other with Reschedule.
// Both must fire the same timers at the same times in the same order.
func TestRescheduleMatchesUnscheduleThenSchedule(t *testing.T) {
	type firing struct {
		at    Time
		timer int
	}
	run := func(seed int64, reschedule bool) []firing {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		var fired []firing
		timers := make([]*Event, 12)
		set := func(i int, delay Time) {
			if e := timers[i]; e != nil && reschedule {
				k.Reschedule(e, delay)
				return
			} else if e != nil {
				k.Unschedule(e)
			}
			timers[i] = k.Schedule(delay, func() { fired = append(fired, firing{k.Now(), i}) })
		}
		var step func()
		steps := 0
		step = func() {
			for n := rng.Intn(4); n > 0; n-- {
				i := rng.Intn(len(timers))
				switch rng.Intn(5) {
				case 0:
					if timers[i] != nil {
						timers[i].Cancel() // stays queued; a later move revives it
					}
				case 1:
					if timers[i] != nil {
						k.Unschedule(timers[i])
					}
				default:
					set(i, Time(rng.Intn(4))) // fired, queued, cancelled or new alike
				}
			}
			if steps++; steps < 400 {
				k.Schedule(Time(rng.Intn(3)), step)
			}
		}
		k.Schedule(0, step)
		k.Run()
		return fired
	}
	for seed := int64(1); seed <= 5; seed++ {
		want, got := run(seed, false), run(seed, true)
		if len(want) < 100 {
			t.Fatalf("seed %d: only %d timers fired", seed, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d firings with Reschedule, %d without", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %+v with Reschedule, %+v without", seed, i, got[i], want[i])
			}
		}
	}
}
