// Package integration cross-checks the universal constructions against each
// other and against sequential models:
//
//   - differential testing: a single worker drives the identical operation
//     stream through the global-lock UC (the trivially correct reference),
//     PREP-V, PREP-Buffered, PREP-Durable and CX-PUC; every response of
//     every system must match the reference exactly;
//   - commuting-workload equivalence: many workers inserting disjoint keys
//     must leave every system with the same final state regardless of the
//     linearization each one chose;
//   - crash-point sweeps: the same workload is crashed at a grid of event
//     indexes and every recovery must satisfy its system's correctness
//     condition.
package integration

import (
	"testing"

	"prepuc/internal/core"
	"prepuc/internal/cxpuc"
	"prepuc/internal/gluc"
	"prepuc/internal/history"
	"prepuc/internal/numa"
	"prepuc/internal/nvm"
	"prepuc/internal/onll"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
	"prepuc/internal/workload"
)

func topo() numa.Topology { return numa.Topology{Nodes: 2, ThreadsPerNode: 4} }

// sys is the common face of every construction under test.
type sys interface {
	Execute(t *sim.Thread, tid int, op uc.Op) uint64
}

type built struct {
	name string
	nsys *nvm.System
	s    sys
	prep *core.PREP // non-nil for PREP variants (persistence lifecycle)
}

// buildAll constructs every system around the same sequential object.
func buildAll(t *testing.T, factory uc.Factory, attacher uc.Attacher, seed int64, workers int) []built {
	t.Helper()
	var out []built
	add := func(name string, f func(th *sim.Thread, ns *nvm.System) (sys, *core.PREP, error)) {
		sch := sim.New(seed)
		ns := nvm.NewSystem(sch, nvm.Config{Costs: sim.UnitCosts()})
		var s sys
		var p *core.PREP
		var err error
		sch.Spawn("boot", 0, 0, func(th *sim.Thread) { s, p, err = f(th, ns) })
		sch.Run()
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		out = append(out, built{name, ns, s, p})
	}
	prepCfg := func(mode core.Mode) core.Config {
		return core.Config{
			Mode: mode, Topology: topo(), Workers: workers,
			LogSize: 512, Epsilon: 64,
			Factory: factory, Attacher: attacher, HeapWords: 1 << 21,
		}
	}
	add("GL", func(th *sim.Thread, ns *nvm.System) (sys, *core.PREP, error) {
		return gluc.New(th, ns, gluc.Config{Factory: factory, HeapWords: 1 << 21}), nil, nil
	})
	add("PREP-V", func(th *sim.Thread, ns *nvm.System) (sys, *core.PREP, error) {
		cfg := prepCfg(core.Volatile)
		cfg.Epsilon = 0
		p, err := core.New(th, ns, cfg)
		return p, p, err
	})
	add("PREP-Buffered", func(th *sim.Thread, ns *nvm.System) (sys, *core.PREP, error) {
		p, err := core.New(th, ns, prepCfg(core.Buffered))
		return p, p, err
	})
	add("PREP-Durable", func(th *sim.Thread, ns *nvm.System) (sys, *core.PREP, error) {
		p, err := core.New(th, ns, prepCfg(core.Durable))
		return p, p, err
	})
	add("CX-PUC", func(th *sim.Thread, ns *nvm.System) (sys, *core.PREP, error) {
		cx, err := cxpuc.New(th, ns, cxpuc.Config{
			Workers: workers, Factory: factory, Attacher: attacher,
			HeapWords: 1 << 21, QueueCapacity: 1 << 16, CapReplicas: 6,
		})
		return cx, nil, err
	})
	add("ONLL", func(th *sim.Thread, ns *nvm.System) (sys, *core.PREP, error) {
		o, err := onll.New(th, ns, onll.Config{
			Workers: workers, Factory: factory, HeapWords: 1 << 21, LogEntries: 1 << 13,
		})
		return o, nil, err
	})
	return out
}

// runSingle drives ops through one system on one worker and returns every
// response.
func runSingle(b built, seed int64, ops []uc.Op) []uint64 {
	sch := sim.New(seed)
	b.nsys.SetScheduler(sch)
	if b.prep != nil && b.prep.Config().Mode.Persistent() {
		b.prep.SpawnPersistence(0)
	}
	res := make([]uint64, len(ops))
	sch.Spawn("w", 0, 0, func(th *sim.Thread) {
		defer func() {
			if b.prep != nil && b.prep.Config().Mode.Persistent() {
				b.prep.StopPersistence(th)
			}
		}()
		for i, op := range ops {
			res[i] = b.s.Execute(th, 0, op)
		}
	})
	sch.Run()
	return res
}

// differential runs the same stream through every system and compares
// responses against the global-lock reference.
func differential(t *testing.T, factory uc.Factory, attacher uc.Attacher, ops []uc.Op, seed int64) {
	t.Helper()
	systems := buildAll(t, factory, attacher, seed, 1)
	ref := runSingle(systems[0], seed+100, ops)
	for _, b := range systems[1:] {
		got := runSingle(b, seed+100, ops)
		for i := range ops {
			if got[i] != ref[i] {
				t.Fatalf("%s response %d for %s(%d,%d): got %d, reference %d",
					b.name, i, uc.OpName(ops[i].Code), ops[i].A0, ops[i].A1, got[i], ref[i])
			}
		}
	}
}

func randomSetOps(seed int64, n int, keyRange uint64) []uc.Op {
	g := workload.NewGen(workload.SetSpec(40, keyRange), seed, 0)
	ops := make([]uc.Op, n)
	for i := range ops {
		ops[i] = g.Next()
	}
	return ops
}

func TestDifferentialHashMap(t *testing.T) {
	differential(t, seq.HashMapFactory(64), seq.HashMapAttacher, randomSetOps(1, 800, 100), 10)
}

func TestDifferentialRBTree(t *testing.T) {
	differential(t, seq.RBTreeFactory(), seq.RBTreeAttacher, randomSetOps(2, 800, 100), 20)
}

func TestDifferentialSkipList(t *testing.T) {
	differential(t, seq.SkipListFactory(), seq.SkipListAttacher, randomSetOps(3, 800, 100), 30)
}

func TestDifferentialListSet(t *testing.T) {
	differential(t, seq.ListSetFactory(), seq.ListSetAttacher, randomSetOps(4, 600, 60), 40)
}

func TestDifferentialStack(t *testing.T) {
	g := workload.NewGen(workload.PairsSpec(uc.OpPush, uc.OpPop, 0), 5, 0)
	ops := make([]uc.Op, 600)
	for i := range ops {
		ops[i] = g.Next()
	}
	differential(t, seq.StackFactory(), seq.StackAttacher, ops, 50)
}

func TestDifferentialPQueue(t *testing.T) {
	g := workload.NewGen(workload.PairsSpec(uc.OpEnqueue, uc.OpDeleteMin, 0), 6, 0)
	ops := make([]uc.Op, 600)
	for i := range ops {
		ops[i] = g.Next()
	}
	differential(t, seq.PQueueFactory(), seq.PQueueAttacher, ops, 60)
}

// TestCommutingWorkloadConverges runs 8 workers inserting disjoint keys on
// every system; all final states must agree.
func TestCommutingWorkloadConverges(t *testing.T) {
	const workers, per = 8, 40
	systems := buildAll(t, seq.HashMapFactory(64), seq.HashMapAttacher, 7, workers)
	var ref map[uint64]uint64
	for _, b := range systems {
		sch := sim.New(70)
		b.nsys.SetScheduler(sch)
		if b.prep != nil && b.prep.Config().Mode.Persistent() {
			b.prep.SpawnPersistence(0)
		}
		remaining := workers
		for tid := 0; tid < workers; tid++ {
			tid := tid
			sch.Spawn("w", topo().NodeOf(tid), 0, func(th *sim.Thread) {
				defer func() {
					remaining--
					if remaining == 0 && b.prep != nil && b.prep.Config().Mode.Persistent() {
						b.prep.StopPersistence(th)
					}
				}()
				for i := uint64(0); i < per; i++ {
					k := uint64(tid)*1000 + i
					b.s.Execute(th, tid, uc.Insert(k, k*7))
				}
			})
		}
		sch.Run()

		state := map[uint64]uint64{}
		sch2 := sim.New(71)
		b.nsys.SetScheduler(sch2)
		sch2.Spawn("read", 0, 0, func(th *sim.Thread) {
			for tid := 0; tid < workers; tid++ {
				for i := uint64(0); i < per; i++ {
					k := uint64(tid)*1000 + i
					state[k] = b.s.Execute(th, 0, uc.Get(k))
				}
			}
		})
		sch2.Run()
		if ref == nil {
			ref = state
			continue
		}
		for k, v := range ref {
			if state[k] != v {
				t.Errorf("%s: key %d = %d, reference %d", b.name, k, state[k], v)
			}
		}
	}
}

// TestCrashPointSweep crashes PREP at a grid of event indexes and checks
// the correctness condition at every point — schedule-coverage for the
// recovery protocol.
func TestCrashPointSweep(t *testing.T) {
	const workers = 8
	beta := uint64(topo().ThreadsPerNode)
	for _, mode := range []core.Mode{core.Buffered, core.Durable} {
		cfg := core.Config{
			Mode: mode, Topology: topo(), Workers: workers,
			LogSize: 128, Epsilon: 32,
			Factory: seq.HashMapFactory(64), Attacher: seq.HashMapAttacher,
			HeapWords: 1 << 20,
		}
		for crashAt := uint64(5_000); crashAt <= 155_000; crashAt += 10_000 {
			bootSch := sim.New(int64(crashAt))
			ns := nvm.NewSystem(bootSch, nvm.Config{
				Costs: sim.UnitCosts(), BGFlushOneIn: 200, Seed: crashAt + 3,
			})
			var p *core.PREP
			var err error
			bootSch.Spawn("boot", 0, 0, func(th *sim.Thread) { p, err = core.New(th, ns, cfg) })
			bootSch.Run()
			if err != nil {
				t.Fatal(err)
			}
			sch := sim.New(int64(crashAt) + 1)
			sch.CrashAtEvent(crashAt)
			ns.SetScheduler(sch)
			p.SpawnPersistence(0)
			completed := make([]uint64, workers)
			for tid := 0; tid < workers; tid++ {
				tid := tid
				sch.Spawn("w", topo().NodeOf(tid), 0, func(th *sim.Thread) {
					defer func() {
						if r := recover(); r != nil && !sim.Crashed(r) {
							panic(r)
						}
					}()
					for i := uint64(0); ; i++ {
						p.Execute(th, tid, uc.Insert(history.Key(tid, i), i))
						completed[tid] = i + 1
					}
				})
			}
			sch.Run()
			if !sch.Frozen() {
				t.Fatalf("crashAt=%d did not crash", crashAt)
			}
			recSch := sim.New(int64(crashAt) + 2)
			recSys := ns.Recover(recSch)
			var rec *core.PREP
			recSch.Spawn("rec", 0, 0, func(th *sim.Thread) {
				rec, _, err = core.Recover(th, recSys, cfg)
			})
			recSch.Run()
			if err != nil {
				t.Fatalf("crashAt=%d recover: %v", crashAt, err)
			}
			keys := make([][]bool, workers)
			chkSch := sim.New(int64(crashAt) + 3)
			recSys.SetScheduler(chkSch)
			chkSch.Spawn("probe", 0, 0, func(th *sim.Thread) {
				for tid := 0; tid < workers; tid++ {
					n := completed[tid] + 16
					keys[tid] = make([]bool, n)
					for i := uint64(0); i < n; i++ {
						keys[tid][i] = rec.Execute(th, 0, uc.Get(history.Key(tid, i))) != uc.NotFound
					}
				}
			})
			chkSch.Run()
			rep := history.Check(keys, completed)
			switch mode {
			case core.Durable:
				if !rep.DurableOK() {
					t.Errorf("%s crashAt=%d: %s", mode, crashAt, rep)
				}
			case core.Buffered:
				if !rep.BufferedOK(cfg.Epsilon, beta) {
					t.Errorf("%s crashAt=%d: %s", mode, crashAt, rep)
				}
			}
		}
	}
}

// TestDurableRecoveryPreservesEveryStructure round-trips each sequential
// structure through a clean crash (all operations completed) and compares
// dumps.
func TestDurableRecoveryPreservesEveryStructure(t *testing.T) {
	cases := []struct {
		name     string
		factory  uc.Factory
		attacher uc.Attacher
		ops      []uc.Op
	}{
		{"hashmap", seq.HashMapFactory(32), seq.HashMapAttacher, randomSetOps(11, 400, 80)},
		{"rbtree", seq.RBTreeFactory(), seq.RBTreeAttacher, randomSetOps(12, 400, 80)},
		{"skiplist", seq.SkipListFactory(), seq.SkipListAttacher, randomSetOps(13, 400, 80)},
		{"listset", seq.ListSetFactory(), seq.ListSetAttacher, randomSetOps(14, 300, 50)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{
				Mode: core.Durable, Topology: topo(), Workers: 4,
				LogSize: 1 << 12, Epsilon: 128,
				Factory: tc.factory, Attacher: tc.attacher, HeapWords: 1 << 21,
			}
			bootSch := sim.New(99)
			ns := nvm.NewSystem(bootSch, nvm.Config{Costs: sim.UnitCosts()})
			var p *core.PREP
			var err error
			bootSch.Spawn("boot", 0, 0, func(th *sim.Thread) { p, err = core.New(th, ns, cfg) })
			bootSch.Run()
			if err != nil {
				t.Fatal(err)
			}
			var before [][3]uint64
			sch := sim.New(100)
			ns.SetScheduler(sch)
			p.SpawnPersistence(0)
			sch.Spawn("w", 0, 0, func(th *sim.Thread) {
				defer p.StopPersistence(th)
				for _, op := range tc.ops {
					p.Execute(th, 0, op)
				}
			})
			sch.Run()
			// Dump the reference state through a read snapshot: rebuild from
			// responses of gets over the key range.
			sch1b := sim.New(101)
			ns.SetScheduler(sch1b)
			sch1b.Spawn("snap", 0, 0, func(th *sim.Thread) {
				for k := uint64(0); k < 100; k++ {
					v := p.Execute(th, 0, uc.Get(k))
					before = append(before, [3]uint64{k, v, 0})
				}
			})
			sch1b.Run()

			recSch := sim.New(102)
			recSys := ns.Recover(recSch)
			var rec *core.PREP
			recSch.Spawn("rec", 0, 0, func(th *sim.Thread) {
				rec, _, err = core.Recover(th, recSys, cfg)
			})
			recSch.Run()
			if err != nil {
				t.Fatal(err)
			}
			chkSch := sim.New(103)
			recSys.SetScheduler(chkSch)
			chkSch.Spawn("chk", 0, 0, func(th *sim.Thread) {
				for _, kv := range before {
					if got := rec.Execute(th, 0, uc.Get(kv[0])); got != kv[1] {
						t.Errorf("key %d: recovered %d, want %d", kv[0], got, kv[1])
					}
				}
			})
			chkSch.Run()
		})
	}
}
