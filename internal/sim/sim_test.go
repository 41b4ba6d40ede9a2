package sim

import (
	"math/rand"
	"strings"
	"testing"
)

func TestSingleThreadRunsToCompletion(t *testing.T) {
	s := New(1)
	ran := false
	s.Spawn("w", 0, 0, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Step(10)
		}
		ran = true
	})
	s.Run()
	if !ran {
		t.Fatal("thread did not run")
	}
}

func TestClockAdvances(t *testing.T) {
	s := New(1)
	var final uint64
	s.Spawn("w", 0, 0, func(th *Thread) {
		th.Step(7)
		th.Step(3)
		final = th.Clock()
	})
	s.Run()
	if final != 10 {
		t.Fatalf("clock = %d, want 10", final)
	}
}

func TestMinClockThreadRunsFirst(t *testing.T) {
	// Two threads with different step costs: the cheap-step thread must
	// complete more steps in the same virtual window.
	s := New(1)
	var order []int
	s.Spawn("slow", 0, 0, func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Step(100)
			order = append(order, 0)
		}
	})
	s.Spawn("fast", 0, 0, func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Step(10)
			order = append(order, 1)
		}
	})
	s.Run()
	// fast's steps land at t=10,20,30; slow's at 100,200,300. All fast
	// entries must precede all slow entries except slow's first step which
	// happens at t=100 after fast finished (fast done by t=30).
	want := []int{1, 1, 1, 0, 0, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		s := New(42)
		var order []int
		for w := 0; w < 4; w++ {
			w := w
			s.Spawn("w", 0, 0, func(th *Thread) {
				for i := 0; i < 50; i++ {
					th.Step(uint64(th.Rand().Intn(20) + 1))
					order = append(order, w)
				}
			})
		}
		s.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTieBreakByID(t *testing.T) {
	s := New(1)
	var first int
	recorded := false
	for w := 0; w < 3; w++ {
		w := w
		s.Spawn("w", 0, 0, func(th *Thread) {
			th.Step(5)
			if !recorded {
				first = w
				recorded = true
			}
		})
	}
	s.Run()
	if first != 0 {
		t.Fatalf("first completed step by thread %d, want 0 (lowest ID wins ties)", first)
	}
}

func TestMutualExclusionOfSteps(t *testing.T) {
	// Plain (non-atomic) increments of a shared counter must not be lost:
	// the scheduler guarantees only one thread runs at a time.
	s := New(7)
	counter := 0
	const perThread = 1000
	const nThreads = 8
	for w := 0; w < nThreads; w++ {
		s.Spawn("w", 0, 0, func(th *Thread) {
			for i := 0; i < perThread; i++ {
				th.Step(1)
				counter++
			}
		})
	}
	s.Run()
	if counter != perThread*nThreads {
		t.Fatalf("counter = %d, want %d", counter, perThread*nThreads)
	}
}

func TestCrashAtEventUnwindsAllThreads(t *testing.T) {
	s := New(1)
	s.CrashAtEvent(500)
	completed := 0
	crashed := 0
	for w := 0; w < 4; w++ {
		s.Spawn("w", 0, 0, func(th *Thread) {
			defer func() {
				if r := recover(); r != nil {
					if !Crashed(r) {
						panic(r)
					}
					crashed++
				}
			}()
			for i := 0; i < 1000; i++ {
				th.Step(1)
			}
			completed++
		})
	}
	s.Run()
	if crashed != 4 {
		t.Fatalf("crashed = %d, want 4", crashed)
	}
	if completed != 0 {
		t.Fatalf("completed = %d, want 0", completed)
	}
	if !s.Frozen() {
		t.Fatal("scheduler not frozen after crash")
	}
}

func TestCrashNowFreezesOthers(t *testing.T) {
	s := New(1)
	crashed := 0
	s.Spawn("killer", 0, 0, func(th *Thread) {
		defer func() {
			if r := recover(); r != nil && !Crashed(r) {
				panic(r)
			}
			if r := recover(); r != nil {
				_ = r
			}
		}()
		th.Step(1)
		s.CrashNow()
		defer func() { recover() }()
		th.Step(1) // will panic Crash{}
	})
	for w := 0; w < 3; w++ {
		s.Spawn("victim", 0, 0, func(th *Thread) {
			defer func() {
				if Crashed(recover()) {
					crashed++
				}
			}()
			for i := 0; i < 1000; i++ {
				th.Step(1)
			}
		})
	}
	s.Run()
	if crashed != 3 {
		t.Fatalf("crashed victims = %d, want 3", crashed)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	s := New(1)
	childRan := false
	s.Spawn("parent", 0, 0, func(th *Thread) {
		th.Step(1)
		s.Spawn("child", 1, th.Clock(), func(c *Thread) {
			c.Step(1)
			childRan = true
		})
		for i := 0; i < 10; i++ {
			th.Step(1)
		}
	})
	s.Run()
	if !childRan {
		t.Fatal("dynamically spawned thread did not run")
	}
}

func TestThreadAccessors(t *testing.T) {
	s := New(3)
	s.Spawn("alpha", 2, 100, func(th *Thread) {
		if th.Name() != "alpha" {
			t.Errorf("Name = %q", th.Name())
		}
		if th.Node() != 2 {
			t.Errorf("Node = %d", th.Node())
		}
		if th.Clock() != 100 {
			t.Errorf("start Clock = %d", th.Clock())
		}
		if th.Scheduler() != s {
			t.Error("Scheduler mismatch")
		}
		if th.ID() != 0 {
			t.Errorf("ID = %d", th.ID())
		}
		th.Step(5)
	})
	s.Run()
}

func TestEventsCounted(t *testing.T) {
	s := New(1)
	s.Spawn("w", 0, 0, func(th *Thread) {
		for i := 0; i < 25; i++ {
			th.Step(1)
		}
	})
	s.Run()
	if got := s.Events(); got != 25 {
		t.Fatalf("Events = %d, want 25", got)
	}
}

func TestZeroCostStepsRoundRobin(t *testing.T) {
	// With zero costs, ties are broken by ID so execution must alternate
	// deterministically and still terminate.
	s := New(1)
	total := 0
	for w := 0; w < 3; w++ {
		s.Spawn("w", 0, 0, func(th *Thread) {
			for i := 0; i < 10; i++ {
				th.Step(0)
				total++
			}
		})
	}
	s.Run()
	if total != 30 {
		t.Fatalf("total = %d, want 30", total)
	}
}

func TestDefaultCostsOrdering(t *testing.T) {
	c := DefaultCosts()
	if c.RemoteAccess <= c.LocalAccess {
		t.Error("remote access should cost more than local")
	}
	if c.WBINVDBase <= c.FlushSync {
		t.Error("WBINVD should dwarf a single line flush")
	}
	if c.FlushSync <= c.FlushLine {
		t.Error("synchronous flush should cost more than async issue")
	}
}

func TestManyThreadsStress(t *testing.T) {
	s := New(99)
	const n = 64
	counts := make([]int, n)
	for w := 0; w < n; w++ {
		w := w
		s.Spawn("w", w%4, 0, func(th *Thread) {
			for i := 0; i < 200; i++ {
				th.Step(uint64(1 + th.Rand().Intn(5)))
				counts[w]++
			}
		})
	}
	s.Run()
	for w, c := range counts {
		if c != 200 {
			t.Fatalf("thread %d made %d steps, want 200", w, c)
		}
	}
}

func TestCrashAfterRelative(t *testing.T) {
	// CrashAfter arms relative to the current event count: armed mid-run
	// after 10 events, the 15th Step must be the one that freezes.
	s := New(1)
	steps := 0
	s.Spawn("w", 0, 0, func(th *Thread) {
		defer func() {
			if r := recover(); r != nil && !Crashed(r) {
				panic(r)
			}
		}()
		for i := 0; i < 100; i++ {
			if i == 10 {
				s.CrashAfter(5)
			}
			th.Step(1)
			steps++
		}
	})
	s.Run()
	if !s.Frozen() {
		t.Fatal("scheduler not frozen")
	}
	if steps != 14 {
		t.Fatalf("completed %d steps before the crash, want 14 (crash on the 15th)", steps)
	}
}

func TestCrashAfterZeroDisarms(t *testing.T) {
	s := New(1)
	s.CrashAtEvent(5)
	done := false
	s.Spawn("w", 0, 0, func(th *Thread) {
		defer func() {
			if r := recover(); r != nil && !Crashed(r) {
				panic(r)
			}
		}()
		s.CrashAfter(0) // disarm before the crash fires
		for i := 0; i < 20; i++ {
			th.Step(1)
		}
		done = true
	})
	s.Run()
	if s.Frozen() || !done {
		t.Fatal("CrashAfter(0) did not disarm the pending crash")
	}
}

// TestCrashArmReturnsPrevious pins the re-arm contract the explorer relies
// on: arming is last-wins, and both arming calls return the previously armed
// absolute event index (0 = none) so a harness stacking adversaries can see
// what it is replacing.
func TestCrashArmReturnsPrevious(t *testing.T) {
	s := New(1)
	if prev := s.CrashAtEvent(10); prev != 0 {
		t.Fatalf("first arm returned prev=%d, want 0", prev)
	}
	if prev := s.CrashAtEvent(5); prev != 10 {
		t.Fatalf("re-arm returned prev=%d, want 10", prev)
	}
	// CrashAfter is relative to the current event counter (0 here) but
	// returns the previous arm as an absolute index.
	if prev := s.CrashAfter(3); prev != 5 {
		t.Fatalf("CrashAfter returned prev=%d, want 5", prev)
	}
	if prev := s.CrashAfter(0); prev != 3 {
		t.Fatalf("disarming CrashAfter returned prev=%d, want 3", prev)
	}
	if prev := s.CrashAtEvent(7); prev != 0 {
		t.Fatalf("arm after disarm returned prev=%d, want 0", prev)
	}
	// Last-wins: the surviving arm is the latest one.
	s.CrashAtEvent(2)
	done := 0
	s.Spawn("w", 0, 0, func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Step(1)
			done++
		}
	})
	s.Run()
	if !s.Frozen() || done != 1 {
		t.Fatalf("last-wins arm: frozen=%v done=%d, want frozen after event 2 (1 completed step)", s.Frozen(), done)
	}
}

// CrashAfter mid-run must report the pending arm as an absolute index.
func TestCrashAfterMidRunReturnsAbsolutePrev(t *testing.T) {
	s := New(1)
	s.Spawn("w", 0, 0, func(th *Thread) {
		for i := 0; i < 4; i++ {
			th.Step(1)
		}
		s.CrashAtEvent(100)
		if prev := s.CrashAfter(50); prev != 100 {
			t.Errorf("CrashAfter returned prev=%d, want 100", prev)
		}
		if s.Events() != 4 {
			t.Errorf("events=%d, want 4", s.Events())
		}
	})
	s.Run()
}

type chooserFunc func(caller int, cands []Candidate) int

func (f chooserFunc) Choose(caller int, cands []Candidate) int { return f(caller, cands) }

// TestChooserForcesSchedule: a chooser that always picks the highest-id
// candidate runs the threads in reverse spawn order, against the built-in
// rule's interleaving.
func TestChooserForcesSchedule(t *testing.T) {
	var order []int
	s := New(1)
	s.SetChooser(chooserFunc(func(caller int, cands []Candidate) int {
		for i := 1; i < len(cands); i++ {
			if cands[i].ID < cands[i-1].ID {
				t.Errorf("candidates not in ascending id order: %v", cands)
			}
		}
		return len(cands) - 1
	}))
	for id := 0; id < 3; id++ {
		id := id
		s.Spawn("w", 0, 0, func(th *Thread) {
			for i := 0; i < 3; i++ {
				th.Step(1)
				order = append(order, id)
			}
		})
	}
	s.Run()
	want := []int{2, 2, 2, 1, 1, 1, 0, 0, 0}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestChooserMinClockMatchesDefault: a chooser that always answers with
// MinClock reproduces the built-in schedule exactly.
func TestChooserMinClockMatchesDefault(t *testing.T) {
	run := func(install bool) []int {
		var order []int
		s := New(7)
		if install {
			s.SetChooser(chooserFunc(func(caller int, cands []Candidate) int {
				return MinClock(cands)
			}))
		}
		for id := 0; id < 4; id++ {
			id := id
			s.Spawn("w", 0, 0, func(th *Thread) {
				for i := 0; i < 5; i++ {
					th.Step(uint64(1 + (id+i)%3))
					order = append(order, id)
				}
			})
		}
		s.Run()
		return order
	}
	def, chosen := run(false), run(true)
	if len(def) != len(chosen) {
		t.Fatalf("lengths differ: %d vs %d", len(def), len(chosen))
	}
	for i := range def {
		if def[i] != chosen[i] {
			t.Fatalf("schedules diverge at %d: default %v, chooser %v", i, def, chosen)
		}
	}
}

// TestRandLazyMatchesEagerSeeding pins each thread's random stream to its
// seed formula (scheduler seed + id * 0x9E37...), although the source is only
// built on the first Rand call: for threads spawned before Run and threads
// spawned by a running thread alike.
func TestRandLazyMatchesEagerSeeding(t *testing.T) {
	const seed = 42
	want := func(id int) *rand.Rand {
		return rand.New(rand.NewSource(seed + int64(id)*int64(0x9E3779B97F4A7C15&0x7FFFFFFFFFFFFFFF)))
	}
	check := func(th *Thread) {
		ref := want(th.ID())
		for i := 0; i < 1000; i++ {
			if got, exp := th.Rand().Int63(), ref.Int63(); got != exp {
				t.Errorf("thread %d draw %d = %d, want %d", th.ID(), i, got, exp)
				return
			}
		}
	}
	s := New(seed)
	checked := 0
	for w := 0; w < 3; w++ {
		s.Spawn("w", 0, 0, func(th *Thread) {
			th.Step(1)
			check(th)
			checked++
			if th.ID() == 1 {
				for c := 0; c < 2; c++ {
					s.Spawn("child", 0, th.Clock(), func(ch *Thread) {
						ch.Step(1)
						check(ch)
						checked++
					})
				}
			}
		})
	}
	s.Run()
	if checked != 5 {
		t.Fatalf("checked %d threads, want 5", checked)
	}
}

// runPanic runs s and returns the value Run panicked with (nil if none).
func runPanic(s *Scheduler) (r any) {
	defer func() { r = recover() }()
	s.Run()
	return nil
}

// TestThreadPanicSurfacesFromRun: a real bug inside a simulated thread comes
// out of Run on the caller's goroutine, recoverable, with the thread's name.
func TestThreadPanicSurfacesFromRun(t *testing.T) {
	s := New(1)
	s.Spawn("bystander", 0, 0, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Step(1)
		}
	})
	s.Spawn("buggy", 0, 0, func(th *Thread) {
		th.Step(3)
		panic("boom")
	})
	r := runPanic(s)
	msg, ok := r.(string)
	if !ok || !strings.Contains(msg, `sim thread "buggy"`) || !strings.Contains(msg, "boom") {
		t.Fatalf("Run panicked with %v, want the thread's re-panic carrying its name and message", r)
	}
}

// TestChooserOutOfRangeSurfacesFromRun: a chooser answering with an index
// outside the candidate slice is a bug, reported by a recoverable panic from
// Run, whether the bad decision is Run's first dispatch or a mid-run Step.
func TestChooserOutOfRangeSurfacesFromRun(t *testing.T) {
	for _, badAt := range []int{0, 3} {
		s := New(1)
		calls := 0
		s.SetChooser(chooserFunc(func(caller int, cands []Candidate) int {
			calls++
			if calls > badAt {
				return len(cands)
			}
			return MinClock(cands)
		}))
		for w := 0; w < 2; w++ {
			s.Spawn("w", 0, 0, func(th *Thread) {
				for i := 0; i < 10; i++ {
					th.Step(1)
				}
			})
		}
		r := runPanic(s)
		msg, _ := r.(string)
		if !strings.Contains(msg, "sim: chooser returned index 2 of 2 candidates") {
			t.Fatalf("bad decision %d: Run panicked with %v, want the chooser index error", badAt+1, r)
		}
	}
}
