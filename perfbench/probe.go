package main

// probe.go observes one simulated machine from outside, through the public
// seams the serve harness already has: the ServeDriver hooks (Boot, Recover,
// SpawnAux, StopAux) and the engine those hooks return. Nothing here calls
// sim.Thread.Step, so the wrappers cost zero virtual time; they only read
// t.Clock() and the host clock, which is what the zero-perturbation gate
// checks.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"prepuc/internal/harness"
	"prepuc/internal/metrics"
	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/svc"
	"prepuc/internal/uc"
)

// onThreadCPU runs fn locked to its OS thread and returns the thread's CPU
// time for it: exact even while other machines run on other threads.
func onThreadCPU(fn func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	fn()
	return threadCPU() - c0
}

// machineProbe is everything one machine's wrapped driver and engine saw.
// A machine runs one simulated thread at a time, so its probe needs no
// locking; the scheduler's baton hand-off orders the accesses.
type machineProbe struct {
	ls      localSpans // this machine's spans (no-op when untraced)
	machine int        // index of the machine span in ls
	phase   int        // index of the open serving-phase span, or -1

	scheds    map[*sim.Scheduler]bool
	lastSched *sim.Scheduler
	sys       *nvm.System // latest system: the booted one, then the recovered one
	serving   bool
	probes    map[*sim.Scheduler]int // probe span index per probe timeline

	layerStats // this machine's tallies; snap and events are filled at the end
}

// hostSpan is a host-clock interval.
type hostSpan struct{ start, end time.Time }

func newMachineProbe(tr *tracer, parent int64) *machineProbe {
	p := &machineProbe{ls: localSpans{tr: tr}, scheds: map[*sim.Scheduler]bool{}, phase: -1}
	p.machine = p.ls.begin("machine", parent)
	return p
}

// parent is the span id machine-level spans hang under.
func (p *machineProbe) parent() int64 {
	if p.machine < 0 {
		return 0
	}
	return p.ls.spans[p.machine].ID
}

// see registers a scheduler whose events belong to this machine.
func (p *machineProbe) see(s *sim.Scheduler) {
	if s != p.lastSched {
		p.scheds[s] = true
		p.lastSched = s
	}
}

// events sums Scheduler.Events over every scheduler the machine ran on.
func (p *machineProbe) schedEvents() uint64 {
	var n uint64
	for s := range p.scheds {
		n += s.Events()
	}
	return n
}

// counters is the machine's metrics registry at the end of its run. The
// registry survives Recover, so the last system seen covers both phases.
func (p *machineProbe) counters() metrics.Snapshot { return p.sys.Metrics().Snapshot() }

// endPhase closes the serving phase (at StopAux, or at the crash when the
// phase was cut short).
func (p *machineProbe) endPhase(vEnd uint64) {
	p.serving = false
	p.ls.end(p.phase, 0, vEnd)
	p.phase = -1
}

// finish closes what is still open and stretches the machine span over its
// children, returning the machine's spans.
func (p *machineProbe) finish() []span {
	p.endPhase(0)
	if p.machine < 0 {
		return nil
	}
	m := &p.ls.spans[p.machine]
	for _, s := range p.ls.spans {
		if s.host() && s.ID != m.ID {
			if s.Start < m.Start {
				m.Start = s.Start
			}
			if s.End > m.End {
				m.End = s.End
			}
		}
	}
	return p.ls.spans
}

// wrap returns a copy of d whose hooks report to p.
func (p *machineProbe) wrap(d *harness.ServeDriver) *harness.ServeDriver {
	w := *d
	w.Boot = func(t *sim.Thread, sys *nvm.System) (uc.UC, error) {
		p.see(t.Scheduler())
		p.sys = sys
		sp := p.ls.begin("boot", p.parent())
		v0 := t.Clock()
		var eng uc.UC
		var err error
		start := time.Now()
		p.bootCPU += onThreadCPU(func() { eng, err = d.Boot(t, sys) })
		p.boots = append(p.boots, hostSpan{start, time.Now()})
		p.bootVNS += t.Clock() - v0
		p.ls.end(sp, v0, t.Clock())
		if err != nil {
			return nil, err
		}
		return p.engine(eng)
	}
	w.Recover = func(t *sim.Thread, recSys *nvm.System) (uc.UC, harness.RecoverInfo, error) {
		p.endPhase(0)
		p.see(t.Scheduler())
		p.sys = recSys
		sp := p.ls.begin("recover", p.parent())
		v0 := t.Clock()
		var eng uc.UC
		var info harness.RecoverInfo
		var err error
		p.recCPU += onThreadCPU(func() { eng, info, err = d.Recover(t, recSys) })
		p.recVNS += t.Clock() - v0
		p.recReplayed += info.Replayed
		p.ls.end(sp, v0, t.Clock())
		if err != nil {
			return nil, info, err
		}
		e, err := p.engine(eng)
		return e, info, err
	}
	if d.SpawnAux != nil {
		w.SpawnAux = func() {
			// The harness installs the phase's scheduler before SpawnAux, so
			// this is where a serving phase begins.
			p.see(p.sys.Scheduler())
			p.serving = true
			p.phase = p.ls.begin("serve", p.parent())
			d.SpawnAux()
		}
	}
	if d.StopAux != nil {
		w.StopAux = func(t *sim.Thread) {
			d.StopAux(t)
			p.endPhase(t.Clock())
		}
	}
	return &w
}

// fullEngine is what the serve path needs from a construction: the
// operation entry point, the batched path with its durability barrier, and
// the metrics registry.
type fullEngine interface {
	uc.UC
	svc.Batcher
	svc.DurabilityWaiter
	uc.Instrumented
}

func (p *machineProbe) engine(eng uc.UC) (uc.UC, error) {
	full, ok := eng.(fullEngine)
	if !ok {
		return nil, fmt.Errorf("perfbench: engine %T lacks the batched service interfaces", eng)
	}
	return &engine{inner: full, p: p}, nil
}

// engine forwards every interface the service resolves and records each
// ExecuteBatch's virtual extent on the calling thread. It adds no Step.
type engine struct {
	inner fullEngine
	p     *machineProbe
}

func (e *engine) Execute(t *sim.Thread, tid int, op uc.Op) uint64 {
	p := e.p
	s := t.Scheduler()
	p.see(s)
	if p.ls.tr != nil && !p.serving {
		// Outside a serving phase, Execute comes from the checker's state
		// probes: one span per probe timeline.
		if p.probes == nil {
			p.probes = map[*sim.Scheduler]int{}
		}
		i, ok := p.probes[s]
		if !ok {
			i = p.ls.begin("probe", p.parent())
			p.probes[s] = i
		}
		v := t.Clock()
		r := e.inner.Execute(t, tid, op)
		p.ls.extend(i, v, t.Clock())
		return r
	}
	return e.inner.Execute(t, tid, op)
}

func (e *engine) ExecuteBatch(t *sim.Thread, tid int, ops []uc.Op, res []uint64) uint64 {
	p := e.p
	p.see(t.Scheduler())
	v0 := t.Clock()
	mark := e.inner.ExecuteBatch(t, tid, ops, res)
	v1 := t.Clock()
	p.batchOps += uint64(len(ops))
	p.batchVNS = append(p.batchVNS, v1-v0)
	if p.ls.tr != nil {
		p.ls.batch(p.parent(), tid, len(ops), v0, v1)
	}
	return mark
}

func (e *engine) AwaitDurable(t *sim.Thread, mark uint64) { e.inner.AwaitDurable(t, mark) }

func (e *engine) Stats() metrics.Snapshot { return e.inner.Stats() }

// fleet hands out one probe per machine. The sharded harness calls its
// driver constructor from concurrent host goroutines, so registration
// locks; each probe is then confined to its own machine.
type fleet struct {
	tr       *tracer
	parent   int64
	mu       sync.Mutex
	machines []*machineProbe
}

func (f *fleet) driver(mk func() *harness.ServeDriver) *harness.ServeDriver {
	f.mu.Lock()
	p := newMachineProbe(f.tr, f.parent)
	f.machines = append(f.machines, p)
	f.mu.Unlock()
	return p.wrap(mk())
}

// layerStats are the per-layer tallies of one machine, or summed over
// several.
type layerStats struct {
	snap                metrics.Snapshot
	events              uint64
	bootCPU             time.Duration
	boots               []hostSpan
	bootVNS             uint64
	recCPU              time.Duration
	recVNS, recReplayed uint64
	batchOps            uint64
	batchVNS            []uint64 // one entry per ExecuteBatch
}

// stats closes the fleet's spans and sums its machines' tallies.
func (f *fleet) stats() layerStats {
	var ls layerStats
	for _, p := range f.machines {
		f.tr.add(p.finish())
		p.snap, p.events = p.counters(), p.schedEvents()
		ls.add(p.layerStats)
	}
	return ls
}

func (ls *layerStats) add(o layerStats) {
	ls.snap = ls.snap.Add(o.snap)
	ls.events += o.events
	ls.bootCPU += o.bootCPU
	ls.boots = append(ls.boots, o.boots...)
	ls.bootVNS += o.bootVNS
	ls.recCPU += o.recCPU
	ls.recVNS += o.recVNS
	ls.recReplayed += o.recReplayed
	ls.batchOps += o.batchOps
	ls.batchVNS = append(ls.batchVNS, o.batchVNS...)
}

// bootWall is the wall time during which at least one machine booted.
func (ls *layerStats) bootWall() time.Duration { return unionLen(ls.boots) }

// unionLen is the wall time covered by at least one interval: machines that
// boot concurrently on different host threads count once.
func unionLen(spans []hostSpan) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var total time.Duration
	var cur hostSpan
	for i, s := range spans {
		if i == 0 || s.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = s
			continue
		}
		if s.end.After(cur.end) {
			cur.end = s.end
		}
	}
	return total + cur.end.Sub(cur.start)
}

// quantile returns the exact q-quantile of sorted values (nearest rank).
func quantile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
