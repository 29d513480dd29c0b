package commute_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/commute"
	"repro/internal/core"
	"repro/internal/fs"
)

// checkIndex asserts that, for every summary, the index's conflict set is
// exactly the brute-force set of ids the syntactic check rejects, and that
// the observer lookup lists exactly the ids observing each directory.
func checkIndex(t *testing.T, name string, sums []*commute.Summary) {
	t.Helper()
	x := commute.NewIndex()
	for i, s := range sums {
		x.Add(i, s)
	}
	for i, s := range sums {
		var want []int
		for j, u := range sums {
			if !commute.Commute(s, u) {
				want = append(want, j)
			}
		}
		if got := x.Conflicts(s); !slices.Equal(got, want) {
			t.Fatalf("%s: summary %d: Conflicts = %v, brute force = %v", name, i, got, want)
		}
		for d := range s.ChildObserved() {
			var obs []int
			for j, u := range sums {
				if u.ObservesChildrenOf(d) {
					obs = append(obs, j)
				}
			}
			if got := x.Observers(d); !slices.Equal(got, obs) {
				t.Fatalf("%s: Observers(%s) = %v, brute force = %v", name, d, got, obs)
			}
		}
	}
}

func TestIndexMatchesCommuteOnSeedManifests(t *testing.T) {
	for _, b := range benchmarks.All() {
		s, err := core.Load(b.Source, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		g := s.ExprGraph()
		var sums []*commute.Summary
		for _, n := range g.Nodes() {
			sums = append(sums, commute.Analyze(g.Label(n)))
		}
		checkIndex(t, b.Name, sums)
	}
}

func TestIndexMatchesCommuteOnRandomExprs(t *testing.T) {
	cfg := fs.DefaultGenConfig()
	// The root exercises the parent-less edge case.
	cfg.Paths = append(cfg.Paths, fs.Root)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		sums := make([]*commute.Summary, 2+r.Intn(12))
		for i := range sums {
			// Random programs rarely hit the guarded-mkdir idiom, so mix
			// some in to get D effects.
			e := fs.GenExpr(r, cfg, 3)
			if r.Intn(2) == 0 {
				e = fs.Seq{E1: fs.MkdirIfMissing(cfg.Paths[r.Intn(len(cfg.Paths))]), E2: e}
			}
			sums[i] = commute.Analyze(e)
		}
		checkIndex(t, "random", sums)
	}
}
