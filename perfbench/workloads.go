package main

// workloads.go defines the three workloads. Each repetition builds its
// inputs from the seed, drives the system through the repository's public
// entry points (harness.RunServe, harness.RunShardedServe, explore.Run) and
// returns one sample: its host times, every value that must repeat exactly
// at one seed, and the outcome of its correctness gates.

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"prepuc/internal/explore"
	"prepuc/internal/harness"
	"prepuc/internal/openloop"
	"prepuc/internal/shard"
)

// sample is one repetition of a workload. Host times are CPU seconds of
// the process (see cpuNow).
type sample struct {
	hostS, setupS float64
	peakRSS       float64 // MiB, this repetition's peak resident set
	// det holds every value that must repeat exactly at one seed: virtual
	// times, counters and outcome counts.
	det map[string]float64
	// host holds the per-layer host-clock values.
	host              map[string]float64
	attempted, failed uint64
	gates             []string // failed correctness gates
}

func newSample() *sample {
	return &sample{det: map[string]float64{}, host: map[string]float64{}}
}

func (s *sample) gate(ok bool, format string, args ...any) {
	if !ok {
		s.gates = append(s.gates, fmt.Sprintf(format, args...))
	}
}

// options are the knobs a repetition takes besides the seed. Runs use two
// host jobs where the machine has them; the benchmark's tests also check
// one job. A traced sharded-crash run adds a repetition without the check
// to measure the checker's cost.
type options struct {
	jobs    int  // host jobs for sharded-crash and explore-detect
	noCheck bool // sharded-crash without the linearize check
}

func defaultOptions() options {
	return options{jobs: min(2, runtime.NumCPU())}
}

type workload struct {
	name, why string
	run       func(seed int64, tr *tracer, o options) (*sample, error)
}

var workloads = []workload{
	{"serve-durable", "open-loop rate ladder on one PREP-Durable machine: every update pays the durable log, combine and flush path", runServeDurable},
	{"sharded-crash", "four PREP-Buffered machines behind the hash router, two crash mid-run: recovery, exactly-once resume and the checker", runShardedCrash},
	{"explore-detect", "bounded exhaustive explorer on PREP-Durable with detection: whole-machine replays, crash materialisation and tiny checks", runExploreDetect},
}

// serveOpen is the open-loop traffic both serve workloads use: the openloop
// defaults of cmd/prepserve for bursts (4x for 20% of the time), think time
// and population. KeySkew 0.99 is at or below 1, which openloop draws
// uniformly.
func serveOpen(rate float64, readPct int, durNS uint64, seed int64) openloop.Config {
	return openloop.Config{
		Clients: 200_000, Keys: 1 << 16, KeySkew: 0.99, ReadPct: readPct,
		Rate: rate, DurationNS: durNS, ThinkNS: 50_000,
		BurstEveryNS: 500_000, BurstLenNS: 100_000, BurstFactor: 4,
		Seed: seed + 1000,
	}
}

// serveSystem returns the named harness construction.
func serveSystem(name string) harness.ServeSystem {
	for _, s := range harness.ServeSystems() {
		if s.Name == name {
			return s
		}
	}
	panic("perfbench: no serve system " + name)
}

const (
	epsilon = 64
	// sloNS is the p99 limit of the serve-durable rate ladder.
	sloNS = 100_000
	// rungNS is the virtual length of one serve-durable rung: long enough
	// for p99.9 at the reference rung to have ten samples beyond it.
	rungNS = 2_000_000
	// shardNS is the virtual length of the sharded-crash run; the crash
	// falls at its midpoint.
	shardNS = 4_000_000
)

// ladder is the fixed list of base offered rates (openloop Rate, ops per
// virtual second; bursts raise the mean to 1.6x). It runs from about a
// quarter of capacity to past saturation; refRate is the rung below the
// knee where the latency percentiles are read.
var ladder = []float64{3e6, 4e6, 5e6, 6e6, 7e6, 8e6, 12e6, 16e6}

const refRate = 5e6

func rungName(rate float64) string {
	return strconv.FormatFloat(rate/1e6, 'f', -1, 64) + "M"
}

func runServeDurable(seed int64, tr *tracer, o options) (*sample, error) {
	s := newSample()
	wl := tr.begin("workload", 0)
	sys := serveSystem("PREP-Durable")
	var all layerStats
	var gen, boot, run, wall time.Duration
	var latSum float64
	var completed uint64
	sloOK := true
	for _, rate := range ladder {
		// Each rung starts from a collected heap, as each repetition does.
		// Otherwise the previous rung's machine is collected at a moment
		// that varies from run to run, and so does the peak RSS.
		runtime.GC()
		open := serveOpen(rate, 50, rungNS, seed)
		g := tr.begin("generate", wl)
		w0, c0 := time.Now(), cpuNow()
		arr, err := openloop.Generate(open)
		dg, wg := cpuNow()-c0, time.Since(w0)
		tr.end(g)
		if err != nil {
			return nil, err
		}
		f := &fleet{tr: tr, parent: wl}
		d := f.driver(func() *harness.ServeDriver { return sys.New(4, epsilon) })
		w1, c1 := time.Now(), cpuNow()
		res, err := harness.RunServe(d, harness.ServeConfig{
			Shards: 4, RingSize: 1024, MaxBatch: 32, Batched: true,
			Open: open, Seed: seed,
		})
		dc, wc := cpuNow()-c1, time.Since(w1)
		if err != nil {
			return nil, fmt.Errorf("serve-durable at %s: %w", rungName(rate), err)
		}
		ls := f.stats()
		all.add(ls)
		// RunServe generates the same schedule internally; that cost is
		// charged to set-up at the stand-alone call's measure.
		gen += dg
		boot += ls.bootCPU
		run += dc - dg - ls.bootCPU
		wall += wc - wg - ls.bootWall()

		n := uint64(len(arr))
		s.attempted += n
		s.failed += n - min(n, res.Completed)
		s.gate(res.Completed == n, "serve-durable %s: %d of %d arrivals completed", rungName(rate), res.Completed, n)
		latSum += res.Latency.Mean * float64(res.Completed)
		completed += res.Completed

		r := "ladder." + rungName(rate) + "."
		s.det[r+"ops_per_vs"] = res.OpsPerSec
		s.det[r+"p50_vns"] = float64(res.Latency.P50)
		s.det[r+"p99_vns"] = float64(res.Latency.P99)
		s.det[r+"full_stalls"] = float64(res.Ring.FullStalls)
		if sloOK = sloOK && res.Completed == n && res.Latency.P99 <= sloNS; sloOK {
			s.det["slo_rate_ops_per_vs"] = rate
		}
		if rate == refRate {
			latency(s, res)
		}
		s.det["ops_per_vs"] = res.OpsPerSec // the top rung's is kept
	}
	tr.end(wl)
	s.hostS, s.setupS = run.Seconds(), (gen + boot).Seconds()
	s.host["host_s"] = wall.Seconds()
	s.host["openloop.generate_host_s"] = gen.Seconds()
	s.host["boot.host_s"] = boot.Seconds()
	s.det["openloop.arrivals"] = float64(s.attempted)
	layers(s, all)
	if completed > 0 {
		s.det["svc.wait_vns_mean"] = latSum/float64(completed) - s.det["core.batch_vns_per_op"]
	}
	return s, nil
}

// latency records the end-to-end latency percentiles of one serve result,
// with the sample count; p99.9 only where at least ten samples lie beyond it.
func latency(s *sample, res *harness.ServeResult) {
	s.det["p50_vns"] = float64(res.Latency.P50)
	s.det["p99_vns"] = float64(res.Latency.P99)
	s.det["latency_samples"] = float64(res.Completed)
	if res.Completed >= 10_000 {
		s.det["p999_vns"] = float64(res.Latency.P999)
	}
}

// Sharded-crash geometry: machines 0 and 2 crash at the midpoint.
var crashShards = []int{0, 2}

func runShardedCrash(seed int64, tr *tracer, o options) (*sample, error) {
	s := newSample()
	wl := tr.begin("workload", 0)
	open := serveOpen(32e6, 90, shardNS, seed)

	g := tr.begin("generate", wl)
	w0, c0 := time.Now(), cpuNow()
	arr, err := openloop.Generate(open)
	dg, wg := cpuNow()-c0, time.Since(w0)
	tr.end(g)
	if err != nil {
		return nil, err
	}
	p := tr.begin("partition", wl)
	w1, c1 := time.Now(), cpuNow()
	router, err := shard.NewRouter(shard.Hash, 4, open.Keys)
	if err != nil {
		return nil, err
	}
	router.Partition(arr)
	dp, wp := cpuNow()-c1, time.Since(w1)
	tr.end(p)

	sys := serveSystem("PREP-Buffered")
	f := &fleet{tr: tr, parent: wl}
	w2, c2 := time.Now(), cpuNow()
	res, err := harness.RunShardedServe(func() *harness.ServeDriver {
		return f.driver(func() *harness.ServeDriver { return sys.New(2, epsilon) })
	}, harness.ShardedServeConfig{
		Instances: 4, Route: "hash", TotalWorkers: 8,
		RingSize: 1024, MaxBatch: 32, Batched: true,
		Open: open, Seed: seed, Policy: "targeted", Check: !o.noCheck,
		CrashAtNS: shardNS / 2, CrashShards: crashShards, Jobs: o.jobs,
	})
	dc, wc := cpuNow()-c2, time.Since(w2)
	tr.end(wl)
	if err != nil {
		return nil, fmt.Errorf("sharded-crash: %w", err)
	}
	ls := f.stats()
	// RunShardedServe generates and partitions the same schedule
	// internally; those costs are charged to set-up.
	s.hostS = (dc - dg - dp - ls.bootCPU).Seconds()
	s.setupS = (dg + dp + ls.bootCPU).Seconds()
	s.host["host_s"] = (wc - wg - wp - ls.bootWall()).Seconds()
	s.host["openloop.generate_host_s"] = dg.Seconds()
	s.host["shard.partition_host_s"] = dp.Seconds()
	s.host["boot.host_s"] = ls.bootCPU.Seconds()
	s.host["recovery.host_s"] = ls.recCPU.Seconds()

	n := uint64(len(arr))
	s.attempted = n
	s.failed = n - min(n, res.Completed)
	s.gate(res.Completed == n, "sharded-crash: %d of %d arrivals completed", res.Completed, n)
	s.det["openloop.arrivals"] = float64(n)
	s.det["ops_per_vs"] = res.OpsPerSec
	latency(s, res)
	s.det["shard.imbalance"] = res.Imbalance

	c := res.Crash
	if c == nil || c.DuplicatesApplied == nil {
		return nil, fmt.Errorf("sharded-crash: no detectable crash block")
	}
	s.failed += *c.DuplicatesApplied
	s.gate(*c.DuplicatesApplied == 0, "sharded-crash: %d duplicates applied", *c.DuplicatesApplied)
	s.gate(c.InFlightResolved == c.LostInflight, "sharded-crash: %d in-flight resolved of %d lost", c.InFlightResolved, c.LostInflight)
	s.det["stall_vns"] = float64(c.StallNS)
	s.det["recovery.vns"] = float64(ls.recVNS)
	s.det["recovery.replayed"] = float64(ls.recReplayed)
	s.det["recovery.in_flight_resolved"] = float64(c.InFlightResolved)
	s.det["recovery.duplicates_applied"] = float64(*c.DuplicatesApplied)
	s.det["recovery.backlog"] = float64(c.BacklogAtResume)
	s.det["recovery.backlog_drain_vns"] = float64(c.BacklogDrainNS)
	if !o.noCheck {
		s.gate(res.Check != nil && res.Check.OK, "sharded-crash: linearize check failed: %+v", res.Check)
		s.gate(res.Composition != nil && res.Composition.OK, "sharded-crash: composition audit failed: %+v", res.Composition)
		if res.Check != nil && res.Composition != nil {
			s.det["linearize.ops_checked"] = float64(res.Check.Ops)
			s.det["linearize.lost"] = float64(res.Check.Lost)
			s.det["linearize.composition_ops"] = float64(res.Composition.OpsAudited)
		}
	}
	layers(s, ls)
	s.det["recovery.dedup_hits"] = float64(ls.snap.DedupHits)
	if res.Completed > 0 {
		s.det["svc.wait_vns_mean"] = res.Latency.Mean - s.det["core.batch_vns_per_op"]
	}
	return s, nil
}

// exploreLeaves is the recorded leaf count of explore-detect's
// configuration. The exploration is exhaustive within its bounds, so the
// count does not depend on the seed.
const exploreLeaves = 13688

// exploreSetups is how many root-leaf replays make one set-up measurement.
const exploreSetups = 51

func runExploreDetect(seed int64, tr *tracer, o options) (*sample, error) {
	s := newSample()
	cfg := explore.Config{System: "prep-durable", Detect: true, Workers: 2, Ops: 3, Depth: 1, Seed: seed, Jobs: o.jobs}
	// Set-up: replay the root leaf (boot, workload, probe, check of one
	// machine), the unit every exploration leaf starts from; median of a few.
	setups := make([]float64, exploreSetups)
	for i := range setups {
		c0 := cpuNow()
		res, ce, err := explore.Repro(cfg, explore.Leaf{})
		setups[i] = (cpuNow() - c0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("explore-detect set-up: %w", err)
		}
		s.gate(res.OK && ce == nil, "explore-detect: root leaf fails: %s", res.Reason)
	}
	s.setupS = median(setups)

	sp := tr.begin("explore", 0)
	w0, c0 := time.Now(), cpuNow()
	rep, err := explore.Run(cfg)
	dc, wc := cpuNow()-c0, time.Since(w0)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("explore-detect: %w", err)
	}
	s.hostS = dc.Seconds()
	s.host["host_s"] = wc.Seconds()
	s.attempted = uint64(rep.Leaves)
	s.failed = uint64(len(rep.Counterexamples))
	s.gate(len(rep.Counterexamples) == 0, "explore-detect: %d counterexamples", len(rep.Counterexamples))
	s.gate(rep.Diverged == 0, "explore-detect: %d diverged prefixes", rep.Diverged)
	s.gate(!rep.Truncated, "explore-detect: exploration truncated")
	s.gate(rep.Leaves == exploreLeaves, "explore-detect: %d leaves, recorded %d", rep.Leaves, exploreLeaves)
	s.det["explore.prefix_runs"] = float64(rep.PrefixRuns)
	s.det["explore.schedules"] = float64(rep.Schedules)
	s.det["explore.choice_points"] = float64(rep.ChoicePoints)
	s.det["explore.dpor_pruned"] = float64(rep.DPORPruned)
	s.det["explore.crash_branches"] = float64(rep.CrashBranches)
	s.det["explore.mask_branches"] = float64(rep.MaskBranches)
	s.det["explore.leaves"] = float64(rep.Leaves)
	s.det["explore.distinct_states"] = float64(rep.DistinctStates)
	if rep.Leaves > 0 {
		s.host["explore.host_us_per_leaf"] = dc.Seconds() * 1e6 / float64(rep.Leaves)
	}
	return s, nil
}

// layers records the per-layer counters of one or more machines.
func layers(s *sample, ls layerStats) {
	c := ls.snap
	d := s.det
	d["sim.events"] = float64(ls.events)
	d["nvm.loads"] = float64(c.Loads)
	d["nvm.stores"] = float64(c.Stores)
	d["nvm.cas"] = float64(c.CASes)
	d["nvm.flush_async"] = float64(c.FlushAsync)
	d["nvm.flush_sync"] = float64(c.FlushSync)
	d["nvm.fences"] = float64(c.Fences)
	d["nvm.flushes_elided"] = float64(c.FlushesElided)
	d["nvm.elided_frac"] = ratio(c.FlushesElided, c.FlushElisionChecks)
	d["nvm.lines_written_back"] = float64(c.LinesWrittenBack)
	d["nvm.coherence_remote"] = float64(c.CoherenceRemote)
	d["nvm.wbinvd"] = float64(c.WBINVDs)
	d["nvm.wbinvd_lines"] = float64(c.WBINVDLines)
	d["nvm.pages_copied"] = float64(c.PagesCopied)
	d["nvm.crash_lines_scanned"] = float64(c.LinesScannedAtCrash)
	d["oplog.tail_cas_attempts"] = float64(c.LogTailCASAttempts)
	d["oplog.tail_cas_fail_frac"] = ratio(c.LogTailCASFailures, c.LogTailCASAttempts)
	d["oplog.wraps"] = float64(c.LogWraps)
	d["locks.acquisitions"] = float64(c.LockAcquisitions)
	d["locks.handoffs"] = float64(c.LockHandoffs)
	d["core.combiner_acquisitions"] = float64(c.CombinerAcquisitions)
	d["core.combined_ops"] = float64(c.CombinedOps)
	d["core.batch_mean"] = c.MeanBatchSize
	d["core.descriptor_flushes"] = float64(c.DescriptorFlushes)
	d["core.cross_node_helps"] = float64(c.CrossNodeHelps)
	d["core.boundary_stall_vns"] = float64(c.FlushBoundaryStallNS)
	d["core.persist_cycles"] = float64(c.PersistCycles)
	d["core.persist_cycle_vns"] = float64(c.PersistCycleNS)
	sort.Slice(ls.batchVNS, func(i, j int) bool { return ls.batchVNS[i] < ls.batchVNS[j] })
	d["core.batch_calls"] = float64(len(ls.batchVNS))
	var sum uint64
	for _, v := range ls.batchVNS {
		sum += v
	}
	d["core.batch_vns_sum"] = float64(sum)
	d["core.batch_vns_p50"] = float64(quantile(ls.batchVNS, 0.50))
	d["core.batch_vns_p99"] = float64(quantile(ls.batchVNS, 0.99))
	d["core.batch_vns_per_op"] = ratio(sum, ls.batchOps)
	d["svc.submits"] = float64(c.RingSubmits)
	d["svc.full_stalls"] = float64(c.RingFullStalls)
	d["svc.ring_batch_mean"] = ratio(c.RingBatchedOps, c.RingBatches)
	d["boot.vns"] = float64(ls.bootVNS)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
