package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// HeldOutSeed is kept out of tuning: a later change that claims a gain on
// this benchmark shows it at HeldOutSeed too, not only at the seeds it was
// developed against.
const HeldOutSeed = 7

func mustRun(t *testing.T, name string, seed int64, tr *tracer, o options) *sample {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			s, err := w.run(seed, tr, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(s.gates) > 0 || s.failed > 0 {
				t.Fatalf("%s: gates %v, %d of %d failed", name, s.gates, s.failed, s.attempted)
			}
			return s
		}
	}
	t.Fatalf("no workload %s", name)
	return nil
}

func sameDet(t *testing.T, what string, a, b *sample) {
	t.Helper()
	if !reflect.DeepEqual(a.det, b.det) {
		t.Fatalf("%s: deterministic values differ: %s", what, diff(a.det, b.det))
	}
}

// Two runs at one seed agree on every virtual-time metric and counter, a
// traced run agrees with an untraced one, and another seed gives another
// run.
func TestRepeatableAndUnperturbed(t *testing.T) {
	for _, name := range []string{"serve-durable", "sharded-crash"} {
		t.Run(name, func(t *testing.T) {
			a := mustRun(t, name, 1, nil, options{jobs: 2})
			b := mustRun(t, name, 1, nil, options{jobs: 2})
			sameDet(t, "repeated", a, b)
			tr := newTracer()
			c := mustRun(t, name, 1, tr, options{jobs: 2})
			sameDet(t, "traced", a, c)
			if len(tr.spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			if d := mustRun(t, name, HeldOutSeed, nil, options{jobs: 2}); reflect.DeepEqual(a.det, d.det) {
				t.Fatal("seeds 1 and HeldOutSeed gave identical runs")
			}
		})
	}
}

func TestShardedCrashJobsInvariant(t *testing.T) {
	a := mustRun(t, "sharded-crash", 1, nil, options{jobs: 1})
	b := mustRun(t, "sharded-crash", 1, nil, options{jobs: 2})
	sameDet(t, "sharded-crash jobs 1 vs 2", a, b)
}

func TestExploreDetectGates(t *testing.T) {
	mustRun(t, "explore-detect", HeldOutSeed, nil, defaultOptions())
}

// BENCHMARK.json declares exactly the workloads and metrics this program
// prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if m := got[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: %+v, program has %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
