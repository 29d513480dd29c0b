package repro

// One benchmark per table/figure of the paper's evaluation (section 6).
// Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure series are also printed in paper-style tables by
// cmd/experiments; EXPERIMENTS.md records paper-vs-measured shapes.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/experiments"
)

func loadOrFatal(b *testing.B, src string, opts core.Options) *core.System {
	b.Helper()
	sys, err := core.Load(src, opts)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkFig11aPaths reports the paths-per-state metric of figure 11a:
// modeled paths before (unpruned) and after (pruned) elimination+pruning,
// per benchmark.
func BenchmarkFig11aPaths(b *testing.B) {
	for _, bench := range benchmarks.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var pruned, unpruned int
			for i := 0; i < b.N; i++ {
				sys := loadOrFatal(b, bench.Source, core.DefaultOptions())
				res, err := sys.CheckDeterminism()
				if err != nil {
					b.Fatal(err)
				}
				pruned, unpruned = res.Stats.Paths, res.Stats.TotalPaths
			}
			b.ReportMetric(float64(unpruned), "paths-unpruned")
			b.ReportMetric(float64(pruned), "paths-pruned")
		})
	}
}

// BenchmarkFig11bPruning measures the determinacy check with the full
// analysis (pruning+elimination on) versus with shrinking disabled, both
// with commutativity checking — figure 11b.
func BenchmarkFig11bPruning(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		prune bool
	}{{"PruneOff", false}, {"PruneOn", true}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for _, bench := range benchmarks.All() {
				bench := bench
				b.Run(bench.Name, func(b *testing.B) {
					opts := core.DefaultOptions()
					opts.Pruning = cfg.prune
					opts.Elimination = cfg.prune
					opts.Timeout = time.Minute
					for i := 0; i < b.N; i++ {
						sys := loadOrFatal(b, bench.Source, opts)
						if _, err := sys.CheckDeterminism(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkFig11cCommutativity measures the determinacy check with and
// without commutativity-based partial-order reduction (pruning off in
// both) — figure 11c. The Off configuration explodes factorially on the
// larger benchmarks, reproducing the paper's timeouts; it runs under a
// short deadline and reports timeouts-per-op instead of failing.
func BenchmarkFig11cCommutativity(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		commut bool
	}{{"CommutOff", false}, {"CommutOn", true}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for _, bench := range benchmarks.All() {
				bench := bench
				b.Run(bench.Name, func(b *testing.B) {
					opts := core.DefaultOptions()
					opts.Commutativity = cfg.commut
					opts.Pruning = false
					opts.Elimination = false
					opts.Timeout = 5 * time.Second
					timeouts := 0
					for i := 0; i < b.N; i++ {
						sys := loadOrFatal(b, bench.Source, opts)
						if _, err := sys.CheckDeterminism(); err == core.ErrTimeout {
							timeouts++
						} else if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(timeouts)/float64(b.N), "timeouts/op")
				})
			}
		})
	}
}

// BenchmarkFig12Idempotence measures the idempotence check on the
// verified suite (seven deterministic benchmarks plus six fixes) —
// figure 12.
func BenchmarkFig12Idempotence(b *testing.B) {
	for _, bench := range benchmarks.Verified() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			sys := loadOrFatal(b, bench.Source, core.DefaultOptions())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sys.CheckIdempotence()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Idempotent {
					b.Fatalf("%s not idempotent", bench.Name)
				}
			}
		})
	}
}

// BenchmarkFig13Scaling measures the deliberate worst case of figure 13
// for n = 2..6 interfering resources; the time grows super-linearly with
// the factorial number of linearizations.
func BenchmarkFig13Scaling(b *testing.B) {
	for n := 2; n <= 6; n++ {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			manifest, provider := experiments.Fig13Manifest(n)
			opts := core.DefaultOptions()
			opts.Provider = provider
			opts.MaxSequences = 1000000
			for i := 0; i < b.N; i++ {
				sys := loadOrFatal(b, manifest, opts)
				res, err := sys.CheckDeterminism()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Deterministic {
					b.Fatal("fig 13 manifest must be deterministic")
				}
			}
		})
	}
}

// BenchmarkBugsFound measures the full section-6 bug-finding pass: check
// all thirteen benchmarks and verify the six fixes.
func BenchmarkBugsFound(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Timeout = time.Minute
	for i := 0; i < b.N; i++ {
		found := 0
		for _, bench := range benchmarks.All() {
			sys := loadOrFatal(b, bench.Source, opts)
			res, err := sys.CheckDeterminism()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Deterministic {
				found++
			}
		}
		if found != 6 {
			b.Fatalf("found %d bugs, want 6", found)
		}
	}
}

// sleepSetWorkload builds the shape that separates the two POR designs:
// two file resources managing the same path (a genuine conflict) plus k
// users. The users commute with each other but each also touches the
// shared /etc directory the files read, so no ready resource ever
// qualifies as a figure-9a pivot: pivot-only exploration is factorial in
// k+2, while sleep sets bound it by the number of Mazurkiewicz traces
// (quadratic in k here: the users' relative order never matters).
func sleepSetWorkload(k int) string {
	manifest := `
file {'motd-a': path => '/etc/motd', content => 'a' }
file {'motd-b': path => '/etc/motd', content => 'b' }
`
	for i := 0; i < k; i++ {
		manifest += fmt.Sprintf("user {'u%d': ensure => present }\n", i)
	}
	return manifest
}

// BenchmarkAblationSleepSets measures the design choice DESIGN.md calls
// out: the pivot rule alone versus pivot + sleep sets.
func BenchmarkAblationSleepSets(b *testing.B) {
	manifest := sleepSetWorkload(6)
	for _, cfg := range []struct {
		name    string
		disable bool
	}{{"PivotOnly", true}, {"PivotPlusSleep", false}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Elimination = false // keep the conflict in the graph
			opts.Pruning = false
			opts.DisableSleepSets = cfg.disable
			opts.Timeout = 15 * time.Second
			timeouts := 0
			for i := 0; i < b.N; i++ {
				sys := loadOrFatal(b, manifest, opts)
				res, err := sys.CheckDeterminism()
				if err == core.ErrTimeout {
					timeouts++
				} else if err != nil {
					b.Fatal(err)
				} else if res.Deterministic {
					b.Fatal("conflicting motd contents must be non-deterministic")
				}
			}
			b.ReportMetric(float64(timeouts)/float64(b.N), "timeouts/op")
		})
	}
}

// BenchmarkAblationSemanticCommute measures the semantic-commutativity
// extension on three packages with overlapping dependency closures (git,
// amavisd-new and golang-go all pull in perl): syntactically every pair
// conflicts, so all 3! traces must be enumerated and solved jointly;
// semantically the pairs commute and the whole check collapses to
// elimination (measured ~11x faster).
func BenchmarkAblationSemanticCommute(b *testing.B) {
	const manifest = `
package {'git': ensure => present }
package {'amavisd-new': ensure => present }
package {'golang-go': ensure => present }
`
	for _, cfg := range []struct {
		name     string
		semantic bool
	}{{"Syntactic", false}, {"Semantic", true}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.SemanticCommute = cfg.semantic
			opts.Timeout = 2 * time.Minute
			for i := 0; i < b.N; i++ {
				sys := loadOrFatal(b, manifest, opts)
				res, err := sys.CheckDeterminism()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Deterministic {
					b.Fatal("overlapping closures must be deterministic")
				}
			}
		})
	}
}

// BenchmarkDynamicBaseline measures the dynamic enumeration baseline of
// section 4.5 on a small benchmark, for comparison with the static check
// (the paper reports hours of container time; the simulated baseline
// reports its modeled cost as a metric).
func BenchmarkDynamicBaseline(b *testing.B) {
	bench, err := benchmarks.Get("monit")
	if err != nil {
		b.Fatal(err)
	}
	sys := loadOrFatal(b, bench.Source, core.DefaultOptions())
	g := sys.ExprGraph()
	var modeled time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := dynamic.Run(g, dynamic.Options{PerResourceLatency: 3 * time.Second})
		if !res.Deterministic {
			b.Fatal("monit should be deterministic")
		}
		modeled = res.ModeledCost
	}
	b.ReportMetric(modeled.Seconds(), "modeled-container-s")
}
