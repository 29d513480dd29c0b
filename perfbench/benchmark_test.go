package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json, which later changes cite, in
// step with the metrics and workloads the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not run by the benchmark", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestVerdictGate(t *testing.T) {
	r := newReport()
	r.gate("ok", true, true)
	if !r.correct {
		t.Fatal("a matching verdict failed the gate")
	}
	r.gate("ntp-nondet/determinism", true, false)
	if r.correct || len(r.mismatches) != 1 {
		t.Fatal("a wrong verdict passed the gate")
	}
}

func TestStats(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max quantile = %v", q)
	}
	if g := geomean([]float64{1, 100}); g < 9.999 || g > 10.001 {
		t.Errorf("geomean = %v", g)
	}
	if median(nil) != 0 || geomean(nil) != 0 || ratio(1, 0) != 0 {
		t.Error("empty inputs must give 0")
	}
}
