package harness

import (
	"fmt"
	"io"

	"prepuc/internal/core"
	"prepuc/internal/nvm"
	"prepuc/internal/onll"
	"prepuc/internal/par"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// RecoveryPoint is one measurement of the recovery-time extension
// experiment: how long (in virtual time) recovery takes after a crash, as a
// function of the persistence design.
type RecoveryPoint struct {
	System     string `json:"system"`
	Param      string `json:"param"` // ε for PREP, history length for ONLL
	UpdatesRun uint64 `json:"updates_run"`
	Replayed   uint64 `json:"replayed"`
	VirtualNS  uint64 `json:"recovery_virtual_ns"`
	// Restarts counts partially built generations the (re-entrant) recovery
	// skipped; Holes counts not-fully-persisted log entries below the
	// completed tail it stepped over. Both are zero on a clean single crash.
	Restarts uint64 `json:"recovery_restarts"`
	Holes    uint64 `json:"replay_holes"`
}

// RunRecoveryExperiment contrasts checkpoint-based recovery (PREP-Durable:
// replay at most one ε window on top of the stable replica) with log-only
// recovery (ONLL: replay the entire history). The paper motivates PREP-UC's
// persistent replicas precisely as the device that keeps the log — and
// hence recovery — finite (§4.1); this experiment quantifies it. Every cell
// is an independent run-then-crash-then-recover simulation, so up to jobs
// cells run concurrently with points and progress kept in cell order.
func RunRecoveryExperiment(sc Scale, seed int64, jobs int, w io.Writer) ([]RecoveryPoint, error) {
	histories := []uint64{1000, 2000, 4000, 8000}
	run := make([]func() (RecoveryPoint, error), 0, len(sc.EpsSweep)+len(histories))
	for _, eps := range sc.EpsSweep {
		eps := eps
		run = append(run, func() (RecoveryPoint, error) { return prepRecoveryPoint(sc, seed, eps) })
	}
	for _, hist := range histories {
		hist := hist
		run = append(run, func() (RecoveryPoint, error) { return onllRecoveryPoint(sc, seed, hist) })
	}

	points := make([]RecoveryPoint, len(run))
	errs := make([]error, len(run))
	var seqOut par.Seq
	par.Do(par.Jobs(jobs), len(run), func(i int) {
		pt, err := run[i]()
		points[i], errs[i] = pt, err
		seqOut.Done(i, func() {
			if w == nil || err != nil {
				return
			}
			fmt.Fprintf(w, "  %-14s %-10s replayed=%-6d recovery=%.3fms(virtual)\n",
				pt.System, pt.Param, pt.Replayed, float64(pt.VirtualNS)/1e6)
		})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// prepRecoveryPoint runs PREP-Durable with the given ε window, crashes it,
// and measures recovery.
func prepRecoveryPoint(sc Scale, seed int64, eps uint64) (RecoveryPoint, error) {
	const workers = 8
	topoSmall := sc.Topology
	updates := uint64(4000)
	cfg := core.Config{
		Mode: core.Durable, Topology: topoSmall, Workers: workers,
		LogSize: sc.LogSize, Epsilon: eps,
		Factory:  seq.HashMapFactory(1024),
		Attacher: seq.HashMapAttacher, HeapWords: 1 << 22,
	}
	bootSch := sim.New(seed)
	sys := nvm.NewSystem(bootSch, nvm.Config{Costs: sc.Costs, Seed: uint64(seed), NoFlushElision: sc.NoFlushElision})
	var p *core.PREP
	var err error
	bootSch.Spawn("boot", 0, 0, func(t *sim.Thread) { p, err = core.New(t, sys, cfg) })
	bootSch.Run()
	if err != nil {
		return RecoveryPoint{}, fmt.Errorf("harness: recovery: PREP-Durable e=%d: build: %w", eps, err)
	}
	runSch := sim.New(seed + 1)
	sys.SetScheduler(runSch)
	p.SpawnPersistence(0)
	remaining := workers
	for tid := 0; tid < workers; tid++ {
		tid := tid
		runSch.Spawn("w", topoSmall.NodeOf(tid), 0, func(t *sim.Thread) {
			defer func() {
				remaining--
				if remaining == 0 {
					p.StopPersistence(t)
				}
			}()
			for i := uint64(0); i < updates/uint64(workers); i++ {
				p.Execute(t, tid, uc.Insert(uint64(tid)<<32|i, i))
			}
		})
	}
	runSch.Run()
	recSch := sim.New(seed + 2)
	recSys := sys.Recover(recSch)
	var report *core.RecoveryReport
	var recNS uint64
	recSch.Spawn("rec", 0, 0, func(t *sim.Thread) {
		start := t.Clock()
		_, report, err = core.Recover(t, recSys, cfg)
		recNS = t.Clock() - start
	})
	recSch.Run()
	if err != nil {
		return RecoveryPoint{}, fmt.Errorf("harness: recovery: PREP-Durable e=%d: recover: %w", eps, err)
	}
	ms := recSys.Metrics().Snapshot()
	return RecoveryPoint{
		System: "PREP-Durable", Param: fmt.Sprintf("e=%d", eps),
		UpdatesRun: updates, Replayed: report.Replayed, VirtualNS: recNS,
		Restarts: ms.RecoveryRestarts, Holes: ms.ReplayHoles,
	}, nil
}

// onllRecoveryPoint runs ONLL to the given history length, crashes it, and
// measures the full-history replay.
func onllRecoveryPoint(sc Scale, seed int64, hist uint64) (RecoveryPoint, error) {
	const workers = 8
	topoSmall := sc.Topology
	cfg := onll.Config{
		Workers: workers, Factory: seq.HashMapFactory(1024),
		HeapWords: 1 << 22, LogEntries: hist + 64,
	}
	bootSch := sim.New(seed + 10)
	sys := nvm.NewSystem(bootSch, nvm.Config{Costs: sc.Costs, Seed: uint64(seed), NoFlushElision: sc.NoFlushElision})
	var o *onll.ONLL
	var err error
	bootSch.Spawn("boot", 0, 0, func(t *sim.Thread) { o, err = onll.New(t, sys, cfg) })
	bootSch.Run()
	if err != nil {
		return RecoveryPoint{}, fmt.Errorf("harness: recovery: ONLL hist=%d: build: %w", hist, err)
	}
	runSch := sim.New(seed + 11)
	sys.SetScheduler(runSch)
	for tid := 0; tid < workers; tid++ {
		tid := tid
		runSch.Spawn("w", topoSmall.NodeOf(tid), 0, func(t *sim.Thread) {
			for i := uint64(0); i < hist/uint64(workers); i++ {
				o.Execute(t, tid, uc.Insert(uint64(tid)<<32|i, i))
			}
		})
	}
	runSch.Run()
	recSch := sim.New(seed + 12)
	recSys := sys.Recover(recSch)
	var replayed, recNS uint64
	recSch.Spawn("rec", 0, 0, func(t *sim.Thread) {
		start := t.Clock()
		_, replayed, err = onll.Recover(t, recSys, cfg)
		recNS = t.Clock() - start
	})
	recSch.Run()
	if err != nil {
		return RecoveryPoint{}, fmt.Errorf("harness: recovery: ONLL hist=%d: recover: %w", hist, err)
	}
	ms := recSys.Metrics().Snapshot()
	return RecoveryPoint{
		System: "ONLL", Param: fmt.Sprintf("hist=%d", hist),
		UpdatesRun: hist, Replayed: replayed, VirtualNS: recNS,
		Restarts: ms.RecoveryRestarts, Holes: ms.ReplayHoles,
	}, nil
}
