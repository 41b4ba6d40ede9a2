package harness

import (
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

// BenchmarkNestedCrashSweep measures the host-side cost of the crash-sweep
// inner loop at a realistic heap size (the crashtest engines run 1<<21-word
// heaps): clone the frozen post-crash machine, arm a crash inside recovery,
// run to the freeze, materialize the nested crash, then recover fully. The
// workload that produced the machine runs once, in setup; each iteration
// sweeps a fixed set of crash points, so ns/op tracks exactly the work the
// -nested and -sweep modes of cmd/crashtest repeat per crash point. With
// deep-copy snapshots this is O(heap words) per point; with copy-on-write
// pages it is O(pages recovery actually touches).
func BenchmarkNestedCrashSweep(b *testing.B) {
	b.ReportAllocs()
	const (
		workers = 4
		seed    = int64(42)
		updates = uint64(2000)
		points  = 8
	)
	cfg := core.Config{
		Mode: core.Durable, Topology: numa.Topology{Nodes: 1, ThreadsPerNode: workers}, Workers: workers,
		LogSize: 1 << 12, Epsilon: 128,
		Factory:  seq.HashMapFactory(1024),
		Attacher: seq.HashMapAttacher, HeapWords: 1 << 21,
	}

	bootSch := sim.New(seed)
	sys := nvm.NewSystem(bootSch, nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: 64, Seed: uint64(seed)})
	var p *core.PREP
	var err error
	bootSch.Spawn("boot", 0, 0, func(t *sim.Thread) { p, err = core.New(t, sys, cfg) })
	bootSch.Run()
	if err != nil {
		b.Fatal(err)
	}
	runSch := sim.New(seed + 1)
	runSch.CrashAtEvent(400_000)
	sys.SetScheduler(runSch)
	p.SpawnPersistence(0)
	for tid := 0; tid < workers; tid++ {
		tid := tid
		runSch.Spawn("w", 0, 0, func(t *sim.Thread) {
			for i := uint64(0); i < updates; i++ {
				p.Execute(t, tid, uc.Insert(uint64(tid)<<32|i, i))
			}
		})
	}
	runSch.Run()
	if !runSch.Frozen() {
		b.Fatal("workload finished without crashing")
	}
	base := sys.Recover(sim.New(seed + 2))

	// Probe once for the recovery event ceiling, then spread the sweep's
	// crash points across it.
	probeSch := sim.New(seed + 3)
	probe := base.Clone(probeSch)
	probe.SetScheduler(probeSch)
	probeSch.Spawn("probe", 0, 0, func(t *sim.Thread) {
		if _, _, err := core.Recover(t, probe, cfg); err != nil {
			panic(err)
		}
	})
	probeSch.Run()
	ceiling := probeSch.Events()
	if ceiling < points {
		b.Fatalf("recovery too short to sweep: %d events", ceiling)
	}
	stride := ceiling / points

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := uint64(1); k <= points; k++ {
			trialSch := sim.New(seed + 3)
			trialSch.CrashAtEvent(k * stride)
			trial := base.Clone(trialSch)
			trial.SetScheduler(trialSch)
			trialSch.Spawn("recover", 0, 0, func(t *sim.Thread) {
				core.Recover(t, trial, cfg)
			})
			trialSch.Run()
			if !trialSch.Frozen() {
				b.Fatalf("point %d: recovery finished before armed crash", k)
			}
			afterSch := sim.New(seed + 4)
			after := trial.Recover(afterSch)
			afterSch.Spawn("recover2", 0, 0, func(t *sim.Thread) {
				if _, _, err := core.Recover(t, after, cfg); err != nil {
					panic(err)
				}
			})
			afterSch.Run()
		}
	}
}
