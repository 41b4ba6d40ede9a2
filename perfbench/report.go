package main

// report.go names every metric the benchmark prints, with its unit, clock
// and direction. The end-to-end list and the per-layer list are the ones
// BENCHMARK.json declares (the benchmark's tests hold the two in step).

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

type metricDef struct {
	name, unit, clock, better string
}

// Clocks: "virtual" is the modelled machine's time; "cpu" is host time
// measured as the process's CPU time (see cpuNow); "wall" is host wall
// time; "host" is another host quantity; "count" is a deterministic tally
// and "ratio" a quotient of tallies.
var endToEnd = []metricDef{
	{"host_cpu_s", "s", "cpu", "lower"},
	{"setup_s", "s", "cpu", "lower"},
	{"peak_rss_mb", "MiB", "host", "lower"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		// The system's user-visible results, on the serve workloads.
		{"ops_per_vs", "ops/s", "virtual", "higher"},
		{"slo_rate_ops_per_vs", "ops/s", "virtual", "higher"},
		{"p50_vns", "ns", "virtual", "lower"},
		{"p99_vns", "ns", "virtual", "lower"},
		{"p999_vns", "ns", "virtual", "lower"},
		{"latency_samples", "count", "count", "higher"},
		{"stall_vns", "ns", "virtual", "lower"},
		{"fail_frac", "ratio", "ratio", "lower"},
		{"sim_events_per_host_s", "1/s", "cpu", "higher"},
		{"host_s", "s", "wall", "lower"},
		{"host_cpu_raw_s", "s", "cpu", "lower"},
		{"host.calibration_s", "s", "cpu", "lower"},
		{"trace.overhead_s", "s", "cpu", "lower"},
		// sim
		{"sim.events", "count", "count", "lower"},
		{"sim.host_ns_per_event", "ns", "cpu", "lower"},
		// nvm
		{"nvm.loads", "count", "count", "lower"},
		{"nvm.stores", "count", "count", "lower"},
		{"nvm.cas", "count", "count", "lower"},
		{"nvm.flush_async", "count", "count", "lower"},
		{"nvm.flush_sync", "count", "count", "lower"},
		{"nvm.fences", "count", "count", "lower"},
		{"nvm.flushes_elided", "count", "count", "higher"},
		{"nvm.elided_frac", "ratio", "ratio", "higher"},
		{"nvm.lines_written_back", "count", "count", "lower"},
		{"nvm.coherence_remote", "count", "count", "lower"},
		{"nvm.wbinvd", "count", "count", "lower"},
		{"nvm.wbinvd_lines", "count", "count", "lower"},
		{"nvm.pages_copied", "count", "count", "lower"},
		{"nvm.crash_lines_scanned", "count", "count", "lower"},
		// oplog
		{"oplog.tail_cas_attempts", "count", "count", "lower"},
		{"oplog.tail_cas_fail_frac", "ratio", "ratio", "lower"},
		{"oplog.wraps", "count", "count", "lower"},
		// locks
		{"locks.acquisitions", "count", "count", "lower"},
		{"locks.handoffs", "count", "count", "lower"},
		// core
		{"core.combiner_acquisitions", "count", "count", "lower"},
		{"core.combined_ops", "count", "count", "higher"},
		{"core.batch_mean", "ops", "ratio", "higher"},
		{"core.descriptor_flushes", "count", "count", "lower"},
		{"core.cross_node_helps", "count", "count", "lower"},
		{"core.batch_calls", "count", "count", "lower"},
		{"core.batch_vns_sum", "ns", "virtual", "lower"},
		{"core.batch_vns_p50", "ns", "virtual", "lower"},
		{"core.batch_vns_p99", "ns", "virtual", "lower"},
		{"core.batch_vns_per_op", "ns", "virtual", "lower"},
		{"core.boundary_stall_vns", "ns", "virtual", "lower"},
		{"core.persist_cycles", "count", "count", "lower"},
		{"core.persist_cycle_vns", "ns", "virtual", "lower"},
		// svc
		{"svc.submits", "count", "count", "higher"},
		{"svc.full_stalls", "count", "count", "lower"},
		{"svc.ring_batch_mean", "ops", "ratio", "higher"},
		{"svc.wait_vns_mean", "ns", "virtual", "lower"},
	}
	for _, rate := range ladder {
		r := "ladder." + rungName(rate) + "."
		defs = append(defs,
			metricDef{r + "ops_per_vs", "ops/s", "virtual", "higher"},
			metricDef{r + "p50_vns", "ns", "virtual", "lower"},
			metricDef{r + "p99_vns", "ns", "virtual", "lower"},
			metricDef{r + "full_stalls", "count", "count", "lower"},
		)
	}
	return append(defs,
		// harness: boot and recovery through the wrapped driver
		metricDef{"boot.host_s", "s", "cpu", "lower"},
		metricDef{"boot.vns", "ns", "virtual", "lower"},
		metricDef{"recovery.vns", "ns", "virtual", "lower"},
		metricDef{"recovery.host_s", "s", "cpu", "lower"},
		metricDef{"recovery.replayed", "count", "count", "lower"},
		metricDef{"recovery.in_flight_resolved", "count", "count", "higher"},
		metricDef{"recovery.dedup_hits", "count", "count", "higher"},
		metricDef{"recovery.duplicates_applied", "count", "count", "lower"},
		metricDef{"recovery.backlog", "count", "count", "lower"},
		metricDef{"recovery.backlog_drain_vns", "ns", "virtual", "lower"},
		// openloop
		metricDef{"openloop.arrivals", "count", "count", "higher"},
		metricDef{"openloop.generate_host_s", "s", "cpu", "lower"},
		// shard
		metricDef{"shard.partition_host_s", "s", "cpu", "lower"},
		metricDef{"shard.imbalance", "ratio", "ratio", "lower"},
		// linearize
		metricDef{"linearize.ops_checked", "count", "count", "higher"},
		metricDef{"linearize.lost", "count", "count", "lower"},
		metricDef{"linearize.composition_ops", "count", "count", "higher"},
		metricDef{"linearize.check_host_s", "s", "cpu", "lower"},
		// explore
		metricDef{"explore.prefix_runs", "count", "count", "lower"},
		metricDef{"explore.schedules", "count", "count", "higher"},
		metricDef{"explore.choice_points", "count", "count", "lower"},
		metricDef{"explore.dpor_pruned", "count", "count", "higher"},
		metricDef{"explore.crash_branches", "count", "count", "higher"},
		metricDef{"explore.mask_branches", "count", "count", "higher"},
		metricDef{"explore.leaves", "count", "count", "higher"},
		metricDef{"explore.distinct_states", "count", "count", "higher"},
		metricDef{"explore.host_us_per_leaf", "us", "cpu", "lower"},
		// go runtime, per repetition
		metricDef{"host.alloc_mb", "MiB", "host", "lower"},
		metricDef{"host.gc_cycles", "count", "host", "lower"},
		metricDef{"host.gc_cpu_frac", "ratio", "host", "lower"},
		// host self time of each traced span kind
		metricDef{"busy.workload_s", "s", "wall", "lower"},
		metricDef{"busy.generate_s", "s", "wall", "lower"},
		metricDef{"busy.partition_s", "s", "wall", "lower"},
		metricDef{"busy.machine_s", "s", "wall", "lower"},
		metricDef{"busy.boot_s", "s", "wall", "lower"},
		metricDef{"busy.serve_s", "s", "wall", "lower"},
		metricDef{"busy.recover_s", "s", "wall", "lower"},
		metricDef{"busy.probe_s", "s", "wall", "lower"},
		metricDef{"busy.explore_s", "s", "wall", "lower"},
	)
}()

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printTable writes every metric by name with its unit and clock; a metric
// the workload does not exercise reads "-".
func printTable(w io.Writer, vals map[string]float64) {
	row := func(d metricDef, kind string) {
		v, ok := vals[d.name]
		s := "-"
		if ok {
			s = strconv.FormatFloat(v, 'g', 10, 64)
		}
		fmt.Fprintf(w, "%-32s %20s  %-6s %-8s %s\n", d.name, s, d.unit, d.clock, kind)
	}
	fmt.Fprintf(w, "%-32s %20s  %-6s %-8s %s\n", "metric", "value", "unit", "clock", "kind")
	for _, d := range endToEnd {
		row(d, "end-to-end")
	}
	for _, d := range perLayer {
		row(d, "per-layer")
	}
}

// printResult writes the final JSON line: the end-to-end metrics, or with
// trace the per-layer ones (0 where the workload does not exercise one).
func printResult(w io.Writer, correct bool, attempted, failed uint64, vals map[string]float64, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
