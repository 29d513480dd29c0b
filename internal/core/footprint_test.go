package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/commute"
	"repro/internal/fs"
	"repro/internal/graph"
	"repro/internal/prune"
	"repro/internal/qcache"
)

// fleetManifest generates a site manifest of apps × 9 directories × 10
// managed files under /srv/fleet plus three packages whose configuration
// files the manifest overwrites (about 100 resources per app). With buggy
// set, one configuration file loses its require on its package: a
// missing-dependency bug that makes the manifest non-deterministic and
// sends the check through the exact-configuration fallback.
func fleetManifest(seed int64, apps int, buggy bool) string {
	r := rand.New(rand.NewSource(seed))
	word := func() string {
		syl := []string{"ka", "lo", "mi", "nu", "ra", "se", "ti", "vo"}
		return syl[r.Intn(len(syl))] + syl[r.Intn(len(syl))]
	}
	var b strings.Builder
	bug := -1
	if buggy {
		bug = r.Intn(3)
	}
	for i, p := range [][2]string{{"monit", "/etc/monit/monitrc"}, {"ngircd", "/etc/ngircd/ngircd.conf"}, {"openssh-server", "/etc/ssh/sshd_config"}} {
		fmt.Fprintf(&b, "package { '%s': ensure => present }\n", p[0])
		fmt.Fprintf(&b, "file { '%s': content => 'setting = %d'", p[1], r.Intn(1000))
		if i != bug {
			fmt.Fprintf(&b, ", require => Package['%s']", p[0])
		}
		b.WriteString(" }\n")
	}
	b.WriteString("file { '/srv/fleet': ensure => directory }\n")
	for a := 0; a < apps; a++ {
		app := fmt.Sprintf("/srv/fleet/app%02d-%s", a, word())
		fmt.Fprintf(&b, "file { '%s': ensure => directory }\n", app)
		for d := 0; d < 9; d++ {
			dir := fmt.Sprintf("%s/%s%02d", app, word(), d)
			fmt.Fprintf(&b, "file { '%s': ensure => directory }\n", dir)
			for f := 0; f < 10; f++ {
				fmt.Fprintf(&b, "file { '%s/f%02d.conf': content => 'key = %d' }\n", dir, f, r.Intn(1<<20))
			}
		}
	}
	return b.String()
}

// referenceEliminate is the all-pairs elimination the footprint index
// replaced: every fringe node is tested against every live incomparable
// node. Kept as the differential reference for eliminate.
func referenceEliminate(wg *graph.Graph[*workNode], cc *commuteChecker) []*workNode {
	var removed []*workNode
	for {
		if cc.semantic && cc.workers > 1 {
			var pairs []pair
			for _, v := range wg.Nodes() {
				if wg.OutDegree(v) != 0 {
					continue
				}
				anc := wg.Ancestors(v)
				for _, u := range wg.Nodes() {
					if _, isAnc := anc[u]; !isAnc && u != v {
						pairs = append(pairs, pair{wg.Label(v), wg.Label(u)})
					}
				}
			}
			cc.prefetch(pairs)
		}
		changed := false
		for _, v := range wg.Nodes() {
			if wg.OutDegree(v) != 0 {
				continue
			}
			anc := wg.Ancestors(v)
			ok := true
			for _, u := range wg.Nodes() {
				if _, isAnc := anc[u]; isAnc || u == v {
					continue
				}
				if !cc.commutes(wg.Label(v), wg.Label(u)) {
					ok = false
					break
				}
			}
			if ok {
				removed = append(removed, wg.Label(v))
				wg.Remove(v)
				changed = true
			}
		}
		if !changed {
			return removed
		}
	}
}

// referencePruneGraph is pruneGraph with the all-resources observer scan
// the footprint index replaced.
func referencePruneGraph(wg *graph.Graph[*workNode], intern bool) (int, int64) {
	nodes := wg.Nodes()
	touchers := make(map[fs.Path]int)
	for _, n := range nodes {
		for p := range wg.Label(n).sum.Paths() {
			touchers[p]++
		}
	}
	pruned := 0
	var internHits int64
	for _, n := range nodes {
		wn := wg.Label(n)
		expr := wn.expr
		changed := false
		for p, v := range prune.DefinitiveWrites(wn.expr) {
			if !v.Definitive() || touchers[p] != 1 {
				continue
			}
			shared := false
			for _, m := range nodes {
				if m != n && wg.Label(m).sum.ObservesChildrenOf(p.Parent()) {
					shared = true
					break
				}
			}
			if shared {
				continue
			}
			if next, ok := prune.Prune(p, expr); ok {
				expr = next
				pruned++
				changed = true
			}
		}
		if changed {
			if intern {
				h, st := fs.InternWithStats(expr)
				expr = h
				internHits += st.Hits
			}
			wg.SetLabel(n, &workNode{name: wn.name, expr: expr, orig: wn.orig, sum: commute.Analyze(expr), unchanged: wn.unchanged})
		}
	}
	return pruned, internHits
}

// referenceCommuteMatrix fills the POR matrix by asking every pair.
func referenceCommuteMatrix(wg *graph.Graph[*workNode], nodes []graph.Node, cc *commuteChecker) ([][]bool, error) {
	m := make([][]bool, len(nodes))
	for i := range nodes {
		m[i] = make([]bool, len(nodes))
	}
	var pairs [][2]int
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	runParallel(cc.ctx, cc.workers, len(pairs), func(k int) {
		i, j := pairs[k][0], pairs[k][1]
		v := cc.commutes(wg.Label(nodes[i]), wg.Label(nodes[j]))
		m[i][j] = v
		m[j][i] = v
	})
	return m, cc.err()
}

// checkerCounters is the part of a commuteChecker's state that reaches
// Stats, plus every semantic decision it made.
type checkerCounters struct {
	queries, hits, reuses int64
	decisions             map[qcache.Key]bool
}

func countersOf(cc *commuteChecker) checkerCounters {
	c := checkerCounters{queries: cc.queries.Load(), hits: cc.hits.Load(), reuses: cc.reuses.Load(), decisions: map[qcache.Key]bool{}}
	cc.local.Range(func(k, v any) bool {
		c.decisions[k.(qcache.Key)] = v.(bool)
		return true
	})
	return c
}

func sameCounters(a, b checkerCounters) bool {
	if a.queries != b.queries || a.hits != b.hits || a.reuses != b.reuses || len(a.decisions) != len(b.decisions) {
		return false
	}
	for k, v := range a.decisions {
		if w, ok := b.decisions[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func nodeSummary(wg *graph.Graph[*workNode]) []string {
	var out []string
	for _, n := range wg.Nodes() {
		out = append(out, fmt.Sprintf("%d %s %x", n, wg.Label(n).name, wg.Label(n).digest()))
	}
	return out
}

// compareFootprintStages runs elimination (when elim is set), pruning and
// the POR matrix twice on s — with the footprint index and with the
// all-pairs reference, each on a fresh verdict cache — and fails on any
// difference in removal order, pruned models, matrix entries or checker
// counters. Without elimination, pruning and the matrix see every
// resource, as in the exact-configuration fallback.
func compareFootprintStages(t *testing.T, s *System, workers int, semantic, elim bool) {
	t.Helper()
	opts := s.opts
	opts.Parallelism = workers
	opts.SemanticCommute = semantic
	type run struct {
		wg       *graph.Graph[*workNode]
		cc       *commuteChecker
		removed  []string
		afterElm checkerCounters
		pruned   int
		matrix   [][]bool
		final    checkerCounters
	}
	do := func(indexed bool) *run {
		o := opts
		o.SharedQueryCache = qcache.New()
		r := &run{wg: s.workGraph(nil), cc: newCommuteChecker(o)}
		defer r.cc.cancel()
		fp := footprintIndex(r.wg)
		var removed []*workNode
		switch {
		case !elim:
		case indexed:
			removed = eliminate(r.wg, r.cc, fp)
		default:
			removed = referenceEliminate(r.wg, r.cc)
		}
		for _, w := range removed {
			r.removed = append(r.removed, w.name)
		}
		r.afterElm = countersOf(r.cc)
		if indexed {
			r.pruned, _ = pruneGraph(r.wg, fp, true)
		} else {
			r.pruned, _ = referencePruneGraph(r.wg, true)
		}
		var err error
		if indexed {
			r.matrix, err = commuteMatrix(r.wg, r.wg.Nodes(), r.cc)
		} else {
			r.matrix, err = referenceCommuteMatrix(r.wg, r.wg.Nodes(), r.cc)
		}
		if err != nil {
			t.Fatal(err)
		}
		r.final = countersOf(r.cc)
		return r
	}
	ref, got := do(false), do(true)
	tag := fmt.Sprintf("workers=%d semantic=%v elimination=%v", workers, semantic, elim)
	if !slices.Equal(ref.removed, got.removed) {
		t.Fatalf("%s: removal order differs:\nall-pairs %v\nindexed   %v", tag, ref.removed, got.removed)
	}
	if !sameCounters(ref.afterElm, got.afterElm) {
		t.Fatalf("%s: elimination counters differ: %+v vs %+v", tag, ref.afterElm, got.afterElm)
	}
	// (Intern hits are not compared: the intern table is process-wide, so
	// the second run always hits more.)
	if ref.pruned != got.pruned || !slices.Equal(nodeSummary(ref.wg), nodeSummary(got.wg)) {
		t.Fatalf("%s: pruning differs: %d vs %d paths", tag, ref.pruned, got.pruned)
	}
	if !slices.EqualFunc(ref.matrix, got.matrix, slices.Equal[[]bool]) {
		t.Fatalf("%s: commutativity matrix differs", tag)
	}
	if !sameCounters(ref.final, got.final) {
		t.Fatalf("%s: final counters differ: %+v vs %+v", tag, ref.final, got.final)
	}
	t.Logf("%s: %d eliminated, %d pruned, %d semantic decisions", tag, len(got.removed), got.pruned, len(got.final.decisions))
}

func loads(src string) bool {
	_, err := Load(src, DefaultOptions())
	return err == nil
}

// TestFootprintMatchesAllPairs is the differential test of the footprint
// index: on the paper's manifests, random manifests and generated fleets,
// at 1 and 8 workers with and without semantic commutativity,
// elimination, pruning and the POR matrix give exactly the results of the
// all-pairs scans (so the check's verdicts, counterexamples and Stats are
// unchanged).
func TestFootprintMatchesAllPairs(t *testing.T) {
	paths, err := filepath.Glob("../benchmarks/manifests/*.pp")
	if err != nil || len(paths) == 0 {
		t.Fatalf("seed manifests: %v (%d found)", err, len(paths))
	}
	// Each input runs under a set of (semantic, elimination) settings, at 1
	// and 8 workers. Without elimination, pruning and the matrix see every
	// resource, as in the exact-configuration fallback; semantic mode then
	// makes every conflicting pair a solver query, too slow at fleet scale.
	// A clean fleet makes no semantic query with elimination on.
	type config struct{ semantic, elim bool }
	all := []config{{false, true}, {true, true}, {false, false}, {true, false}}
	type input struct {
		name, src string
		configs   []config
	}
	var inputs []input
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{filepath.Base(p), string(src), all})
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; len(inputs) < len(paths)+20; i++ {
		// Random edges may close a cycle; only loadable manifests count.
		if src := genManifest(r); loads(src) {
			inputs = append(inputs, input{fmt.Sprintf("random-%d", i), src, all})
		}
	}
	// Under the race detector only the concurrent (8-worker) runs of the
	// small inputs are compared; the plain test run covers everything.
	workerCounts := []int{1, 8}
	if raceEnabled {
		workerCounts = []int{8}
	}
	if !testing.Short() && !raceEnabled {
		clean := []config{{false, true}}
		inputs = append(inputs,
			input{"fleet-1k", fleetManifest(1, 10, false), clean},
			input{"fleet-1k-buggy", fleetManifest(2, 10, true), all[:3]},
			input{"fleet-2k", fleetManifest(3, 20, false), clean})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			s, err := Load(in.src, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range workerCounts {
				for _, c := range in.configs {
					compareFootprintStages(t, s, workers, c.semantic, c.elim)
				}
			}
		})
	}
}

// A buggy fleet's check falls back to the exact configuration (its final
// Stats show nothing eliminated); the reported Duration must cover the
// abandoned first pass as well as the exact one. The first semantic query
// — asked by elimination, so in the first pass — is slowed by a known
// delay, which a Duration covering only the exact pass would miss.
func TestExactFallbackDurationCoversBothPasses(t *testing.T) {
	opts := DefaultOptions()
	opts.SemanticCommute = true
	opts.SharedQueryCache = qcache.New()
	s, err := Load(fleetManifest(5, 1, true), opts)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 300 * time.Millisecond
	var once sync.Once
	solveTestHook = func(e1, e2 fs.Expr) { once.Do(func() { time.Sleep(delay) }) }
	defer func() { solveTestHook = nil }()
	t0 := time.Now()
	res, err := s.CheckDeterminism()
	wall := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deterministic || res.Stats.Eliminated != 0 {
		t.Fatalf("want a non-deterministic verdict from the exact fallback, got deterministic=%v eliminated=%d",
			res.Deterministic, res.Stats.Eliminated)
	}
	if res.Stats.Duration < wall-delay/2 {
		t.Errorf("Duration %v misses the first pass: the check took %v", res.Stats.Duration, wall)
	}
}

// BenchmarkEliminateFleet times elimination alone on clean generated
// fleets of about 1k, 2k and 4k resources; with the footprint index the
// time per resource stays roughly flat.
func BenchmarkEliminateFleet(b *testing.B) {
	for _, apps := range []int{10, 20, 40} {
		s, err := Load(fleetManifest(1, apps, false), DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("resources=%d", s.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				wg := s.workGraph(nil)
				cc := newCommuteChecker(s.opts)
				b.StartTimer()
				if got := len(eliminate(wg, cc, footprintIndex(wg))); got != s.Size() {
					b.Fatalf("eliminated %d of %d", got, s.Size())
				}
				cc.cancel()
			}
		})
	}
}
