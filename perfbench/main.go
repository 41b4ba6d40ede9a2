// Command perfbench is the repository's benchmark: it runs one workload
// (serve-durable, sharded-crash or explore-detect) from a seed for a fixed
// host-time budget, checks the outputs, and prints every metric by name
// with its unit and clock, ending with one JSON result line. Workload
// "all" runs the three in turn, each with its own table and result line.
// See README.md.
//
//	perfbench -workload serve-durable -seed 1 -seconds 30 -trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "serve-durable, sharded-crash, explore-detect, or all three in turn")
	seed := flag.Int64("seed", 1, "workload seed (inputs are a pure function of it)")
	seconds := flag.Float64("seconds", 30, "host seconds to spend repeating the workload")
	trace := flag.Int("trace", 0, "1: also run traced repetitions and report the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the span dump")
	flag.Parse()

	var ws []*workload
	for i := range workloads {
		if *name == "all" || workloads[i].name == *name {
			ws = append(ws, &workloads[i])
		}
	}
	if len(ws) == 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags: -workload %q -trace %d -seconds %g\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	for _, w := range ws {
		if err := run(w, *seed, *seconds, *trace == 1, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// repeat runs the workload once and adds the repetition's peak RSS, the Go
// runtime's tallies and, when traced, the span self times to its sample.
func repeat(w *workload, seed int64, tr *tracer, o options) (*sample, error) {
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	before := readRuntime()
	s, err := w.run(seed, tr, o)
	if err != nil {
		return nil, err
	}
	after := readRuntime()
	if s.peakRSS, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	s.host["host.alloc_mb"] = (after.alloc - before.alloc) / (1 << 20)
	s.host["host.gc_cycles"] = after.gcs - before.gcs
	if cpu := after.cpu - before.cpu; cpu > 0 {
		s.host["host.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
	for k, v := range tr.busy() {
		s.host["busy."+k+"_s"] = v.Seconds()
	}
	return s, nil
}

func run(w *workload, seed int64, seconds float64, trace bool, out string) error {
	o := defaultOptions()
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var plain, traced, unchecked []*sample
	var lastTrace *tracer // only the last traced repetition's spans are written
	// Three calibrations per gap: one is as noisy as the host, and a median
	// over too few of them adds more spread than it removes.
	var cals []float64
	calibrations := func() {
		for range 3 {
			cals = append(cals, calibrate().Seconds())
		}
	}
	calibrations()
	for {
		t0 := time.Now()
		m, err := repeat(w, seed, nil, o)
		if err != nil {
			return err
		}
		plain = append(plain, m)
		if trace {
			lastTrace = newTracer()
			if m, err = repeat(w, seed, lastTrace, o); err != nil {
				return err
			}
			traced = append(traced, m)
			if w.name == "sharded-crash" {
				// The checker's host cost: the same run with the check off.
				u := o
				u.noCheck = true
				if m, err = repeat(w, seed, nil, u); err != nil {
					return err
				}
				unchecked = append(unchecked, m)
			}
		}
		calibrations()
		if time.Since(start)+time.Since(t0) > budget {
			break
		}
	}

	// Gates: every repetition passes its checks, and every checked one
	// repeats the first one's deterministic values exactly, traced or not.
	ref := plain[0]
	var gates []string
	for i, m := range slices.Concat(plain, traced, unchecked) {
		gates = append(gates, m.gates...)
		if i > 0 && i < len(plain)+len(traced) && !reflect.DeepEqual(m.det, ref.det) {
			gates = append(gates, fmt.Sprintf("repetition %d differs from the first at the same seed: %s", i, diff(ref.det, m.det)))
		}
	}

	// The first repetition warms caches and the heap; host times are
	// medians over the rest (over the traced repetitions for the per-layer
	// host values of a traced run).
	warm := plain
	if len(plain) > 1 {
		warm = plain[1:]
	}
	vals := map[string]float64{}
	for k, v := range ref.det {
		vals[k] = v
	}
	hostReps := warm
	if trace {
		hostReps = traced
	}
	for k := range hostReps[0].host {
		vals[k] = medianOf(hostReps, func(m *sample) float64 { return m.host[k] })
	}
	// End-to-end host times are scaled to the reference host speed by the
	// run's calibrations (see calibrate); the raw CPU time stays per layer.
	cal := median(cals)
	scale := speedScale(cal)
	hostS := medianOf(warm, func(m *sample) float64 { return m.hostS })
	vals["host_cpu_s"] = hostS * scale
	vals["setup_s"] = medianOf(warm, func(m *sample) float64 { return m.setupS }) * scale
	vals["host_cpu_raw_s"] = hostS
	vals["host.calibration_s"] = cal
	vals["peak_rss_mb"] = medianOf(warm, func(m *sample) float64 { return m.peakRSS })
	if ev := ref.det["sim.events"]; ev > 0 && hostS > 0 {
		vals["sim_events_per_host_s"] = ev / hostS
		vals["sim.host_ns_per_event"] = hostS * 1e9 / ev
	}
	vals["fail_frac"] = float64(ref.failed) / float64(max(ref.attempted, 1))
	if trace {
		vals["trace.overhead_s"] = medianOf(traced, func(m *sample) float64 { return m.hostS }) - hostS
		if len(unchecked) > 0 {
			vals["linearize.check_host_s"] = hostS - medianOf(unchecked, func(m *sample) float64 { return m.hostS })
		}
		path := filepath.Join(out, "trace", w.name+".jsonl")
		if err := lastTrace.write(path); err != nil {
			return err
		}
	}

	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%v repetitions=%d\n", w.name, seed, seconds, trace, len(plain))
	fmt.Printf("# %s\n", hostFacts())
	fmt.Printf("# calibrations (s): %.4f\n", cals)
	for i, m := range plain {
		fmt.Printf("# repetition %d (unscaled): cpu_s=%.4f setup_cpu_s=%.4f host_s=%.4f peak_rss_mb=%.2f\n", i, m.hostS, m.setupS, m.host["host_s"], m.peakRSS)
	}
	for _, g := range gates {
		fmt.Printf("# GATE FAILED: %s\n", g)
	}
	printTable(os.Stdout, vals)
	correct := len(gates) == 0 && ref.failed == 0
	return printResult(os.Stdout, correct, ref.attempted, ref.failed, vals, trace)
}

// diff names the first key (in order) whose value differs.
func diff(a, b map[string]float64) string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		va, oka := a[k]
		vb, okb := b[k]
		if va != vb || oka != okb {
			return fmt.Sprintf("%s: %v vs %v", k, va, vb)
		}
	}
	return "none"
}

func medianOf(ms []*sample, f func(*sample) float64) float64 {
	vs := make([]float64, len(ms))
	for i, m := range ms {
		vs[i] = f(m)
	}
	return median(vs)
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

type runtimeTally struct{ alloc, gcs, gcCPU, cpu float64 }

var runtimeSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeTally {
	rtmetrics.Read(runtimeSamples)
	f := func(i int) float64 {
		v := runtimeSamples[i].Value
		switch v.Kind() {
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		case rtmetrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeTally{alloc: f(0), gcs: f(1), gcCPU: f(2), cpu: f(3)}
}

// resetPeakRSS sets the process's peak resident set size (VmHWM) to its
// current size, so that each repetition reports its own peak. On
// serve-durable, the process's lifetime peak spread 0.06 and 0.09 between
// runs (Q3 - Q1 over the median) in two sets of runs; the median of the
// repetitions' peaks spread 0.04.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB is the process's peak resident set size since the last
// resetPeakRSS.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
