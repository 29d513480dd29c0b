package benchmarks

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/qcache"
)

var update = flag.Bool("update", false, "rewrite testdata/seed_stats.json from this run")

// seedRecord is the part of a determinacy result that must not move when
// an optimization claims to leave results unchanged: the verdict, the
// counterexample orders and every Stats counter that does not depend on
// timing or on process history (Duration, Workers and the process-wide
// intern table's hits are left out).
type seedRecord struct {
	Deterministic      bool
	Order1, Order2     []string `json:",omitempty"`
	Eliminated         int
	PrunedPaths        int
	TotalPaths         int
	Paths              int
	Sequences          int
	SemQueries         int
	SolverDecisions    int64
	SolverPropagations int64
	SolverConflicts    int64
	SolverRestarts     int64
}

// TestSeedStatsGolden pins the determinacy results and solver search
// counters of all 19 paper manifests, under the default analyses, with
// single-worker semantic commutativity (fresh solvers and a private
// cache, so the counters do not depend on test order) and in the exact
// configuration, to testdata/seed_stats.json. Changes that claim
// byte-identical results (indexing, solver data structures) must leave
// this file untouched; regenerate it with -update only when a change is
// meant to move the numbers.
func TestSeedStatsGolden(t *testing.T) {
	configs := map[string]func(*core.Options){
		"default": func(*core.Options) {},
		"semantic": func(o *core.Options) {
			o.SemanticCommute = true
			o.FreshSolvers = true
			o.Parallelism = 1
			o.SharedQueryCache = qcache.New()
		},
		"exact": func(o *core.Options) {
			o.Elimination = false
			o.Pruning = false
		},
	}
	got := make(map[string]seedRecord)
	for _, name := range Names() {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for cname, set := range configs {
			opts := core.DefaultOptions()
			opts.Timeout = 2 * time.Minute
			set(&opts)
			s, err := core.Load(b.Source, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := s.CheckDeterminism()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cname, err)
			}
			st := res.Stats
			r := seedRecord{
				Deterministic: res.Deterministic,
				Eliminated:    st.Eliminated, PrunedPaths: st.PrunedPaths,
				TotalPaths: st.TotalPaths, Paths: st.Paths, Sequences: st.Sequences,
				SemQueries:         st.SemQueries,
				SolverDecisions:    st.SolverDecisions,
				SolverPropagations: st.SolverPropagations,
				SolverConflicts:    st.SolverConflicts,
				SolverRestarts:     st.SolverRestarts,
			}
			if cex := res.Counterexample; cex != nil {
				r.Order1, r.Order2 = cex.Order1, cex.Order2
			}
			got[name+"/"+cname] = r
		}
	}

	path := filepath.Join("testdata", "seed_stats.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]seedRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("%s:\n got  %+v\n want %+v", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d records, golden has %d", len(got), len(want))
	}
}
