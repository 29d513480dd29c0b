package core

// Tests for differential verification (CheckDeterminismDiff): the diff
// verdict must be byte-identical to a full re-verification at any worker
// count, unchanged-pair verdicts must be inherited from the warm cache
// with zero solver work, and the two adversarial cases — variable
// indirection changing a textually-unchanged resource, and a changed
// third resource shifting an unchanged pair's pruned models — must be
// classified conservatively (re-verified, never stale).

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/diff"
	"repro/internal/pkgdb"
	"repro/internal/qcache"
)

// diffWorkload returns base and head manifests over the parallelWorkload
// catalog: head adds one package (svc-<n+1>) to a base of n, so every
// base pair is unchanged and every new pair touches the added resource.
func diffWorkload(n int) (base, head string, provider pkgdb.Provider) {
	head, provider = parallelWorkload(n + 1)
	base, _ = parallelWorkload(n)
	return base, head, provider
}

// swapWorkload returns base and head manifests over the parallelWorkload
// catalog: head swaps svc-1 for an equivalently-shaped substitute, so
// n-1 resources are unchanged and every pair touching the substitute
// must be re-verified.
func swapWorkload(n int) (base, head string, provider pkgdb.Provider) {
	base, provider = parallelWorkload(n)
	provider.(*pkgdb.Catalog).Add("ubuntu", &pkgdb.Package{
		Name:    "alt-1",
		Version: "1.0",
		Depends: []string{"libcommon"},
		Files:   []string{"/usr/lib/alt-1/lib000"},
	})
	head = strings.Replace(base, "'svc-1'", "'alt-1'", 1)
	return base, head, provider
}

// checkWorkloadDiff runs head's differential verification against base
// with a shared cache (warm when the caller ran base through it first).
func checkWorkloadDiff(t *testing.T, base, head string, provider pkgdb.Provider, workers int, cache *qcache.Cache) *DeterminismResult {
	t.Helper()
	opts := DefaultOptions()
	opts.Provider = provider
	opts.SemanticCommute = true
	opts.Parallelism = workers
	opts.SharedQueryCache = cache
	opts.Timeout = 2 * time.Minute
	baseSys, err := Load(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	headSys, err := Load(head, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := VerifyDiff(baseSys, headSys)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDiffVerdictsMatchFull: at 1 and 8 workers, a differential run
// against a warm base cache returns the same verdict as a full cold
// verification of head, inherits every unchanged pair without a solver
// query, and re-solves exactly the pairs touching the one changed
// resource — whether head adds a package or swaps one.
func TestDiffVerdictsMatchFull(t *testing.T) {
	const n = 8
	edits := []struct {
		name      string
		workload  func(int) (string, string, pkgdb.Provider)
		unchanged int
	}{
		{"added", diffWorkload, n},
		{"swapped", swapWorkload, n - 1},
	}
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, edit := range edits {
				base, head, provider := edit.workload(n)
				u := edit.unchanged
				t.Run(edit.name, func(t *testing.T) {
					cache := qcache.New()
					// Warm: a full verification of the base version.
					baseRes := checkWorkload(t, base, provider, workers, cache)
					if !baseRes.Deterministic {
						t.Fatal("base workload should be deterministic")
					}
					if baseRes.Stats.SemQueries != n*(n-1)/2 {
						t.Fatalf("base solved %d queries, want %d", baseRes.Stats.SemQueries, n*(n-1)/2)
					}

					res := checkWorkloadDiff(t, base, head, provider, workers, cache)
					full := checkWorkload(t, head, provider, workers, qcache.New())

					if res.Deterministic != full.Deterministic {
						t.Fatalf("verdict differs: diff=%v full=%v", res.Deterministic, full.Deterministic)
					}
					if !reflect.DeepEqual(res.Counterexample, full.Counterexample) {
						t.Errorf("counterexamples differ:\ndiff: %+v\nfull: %+v", res.Counterexample, full.Counterexample)
					}
					if res.Stats.Sequences != full.Stats.Sequences || res.Stats.Paths != full.Stats.Paths {
						t.Errorf("exploration stats differ:\ndiff: %+v\nfull: %+v", res.Stats, full.Stats)
					}

					if res.Stats.DiffChanged != 1 || res.Stats.DiffUnchanged != u {
						t.Errorf("partition: changed=%d unchanged=%d, want 1/%d",
							res.Stats.DiffChanged, res.Stats.DiffUnchanged, u)
					}
					// Every unchanged pair inherited, every pair touching the
					// changed resource re-solved, and no unchanged pair fell
					// back to the solver.
					if res.Stats.PairsReused != u*(u-1)/2 {
						t.Errorf("pairs reused = %d, want %d", res.Stats.PairsReused, u*(u-1)/2)
					}
					if res.Stats.PairsReverified != u {
						t.Errorf("pairs re-verified = %d, want %d", res.Stats.PairsReverified, u)
					}
					if res.Stats.InheritMisses != 0 {
						t.Errorf("inherit misses = %d, want 0", res.Stats.InheritMisses)
					}
					// Zero solver queries for inherited pairs: the run's query
					// count is exactly the re-verified pair count.
					if res.Stats.SemQueries != res.Stats.PairsReverified {
						t.Errorf("diff run solved %d queries for %d re-verified pairs (inherited pairs must not reach the solver)",
							res.Stats.SemQueries, res.Stats.PairsReverified)
					}
				})
			}
		})
	}
}

// hostingDiffCatalog builds the enriched catalog TestDiffHostingEdit
// checks hosting.pp under: the default closures of the three LAMP
// packages plus a shared base library they all depend on, so every
// package pair writes the same closure files (a syntactic conflict
// discharged by one semantic-commutativity query each — the solver work
// a small edit should not have to repeat).
func hostingDiffCatalog() (pkgdb.Provider, error) {
	def := pkgdb.DefaultCatalog()
	cat := pkgdb.NewCatalog()
	lib := &pkgdb.Package{Name: "libhosting-base", Version: "1.0"}
	for i := 0; i < 12; i++ {
		lib.Files = append(lib.Files, fmt.Sprintf("/usr/lib/libhosting-base/lib%03d", i))
	}
	cat.Add("ubuntu", lib)
	for _, name := range []string{"apache2", "mysql-server", "php5"} {
		closure, err := def.Closure("ubuntu", name)
		if err != nil {
			return nil, err
		}
		for _, p := range closure {
			q := *p
			if q.Name == name {
				q.Depends = append(append([]string(nil), q.Depends...), lib.Name)
			}
			cat.Add("ubuntu", &q)
		}
	}
	return cat, nil
}

// TestDiffHostingEdit: a one-resource edit of the largest seed manifest
// (one more Listen line in ports.conf) under the enriched catalog. The
// differential run must match the full verdict, classify exactly one
// resource as changed, and inherit every package pair without a single
// solver query.
func TestDiffHostingEdit(t *testing.T) {
	src, err := os.ReadFile("../benchmarks/manifests/hosting.pp")
	if err != nil {
		t.Fatal(err)
	}
	base := string(src)
	// The manifest source spells newlines as literal \n escapes.
	const anchor = `Listen 80\nListen 443\n`
	head := strings.Replace(base, anchor, `Listen 80\nListen 443\nListen 8080\n`, 1)
	if head == base {
		t.Fatalf("edit anchor %q not found in hosting.pp", anchor)
	}
	provider, err := hostingDiffCatalog()
	if err != nil {
		t.Fatal(err)
	}

	cache := qcache.New()
	if baseRes := checkWorkload(t, base, provider, 1, cache); !baseRes.Deterministic {
		t.Fatal("hosting.pp should be deterministic")
	}
	res := checkWorkloadDiff(t, base, head, provider, 1, cache)
	full := checkWorkload(t, head, provider, 1, qcache.New())
	if full.Stats.SemQueries < 3 {
		t.Fatalf("full check ran %d semantic queries, want >=3 (the LAMP package pairs)", full.Stats.SemQueries)
	}

	if res.Deterministic != full.Deterministic {
		t.Fatalf("verdict differs: diff=%v full=%v", res.Deterministic, full.Deterministic)
	}
	if !reflect.DeepEqual(res.Counterexample, full.Counterexample) {
		t.Errorf("counterexamples differ:\ndiff: %+v\nfull: %+v", res.Counterexample, full.Counterexample)
	}
	if res.Stats.DiffChanged != 1 {
		t.Errorf("diff changed = %d, want 1", res.Stats.DiffChanged)
	}
	if res.Stats.SemQueries != 0 {
		t.Errorf("diff run solved %d queries, want 0 (every package pair is unchanged)", res.Stats.SemQueries)
	}
	if res.Stats.PairsReused < 3 {
		t.Errorf("pairs reused = %d, want >=3 (the LAMP package pairs)", res.Stats.PairsReused)
	}
	if res.Stats.InheritMisses != 0 {
		t.Errorf("inherit misses = %d, want 0", res.Stats.InheritMisses)
	}
}

// TestDiffIdenticalManifests: diffing a manifest against itself classifies
// everything unchanged and inherits the entire matrix.
func TestDiffIdenticalManifests(t *testing.T) {
	const n = 6
	manifest, provider := parallelWorkload(n)
	cache := qcache.New()
	checkWorkload(t, manifest, provider, 4, cache)

	res := checkWorkloadDiff(t, manifest, manifest, provider, 4, cache)
	if !res.Deterministic {
		t.Fatal("workload should be deterministic")
	}
	if res.Stats.DiffChanged != 0 || res.Stats.DiffUnchanged != n {
		t.Errorf("partition: changed=%d unchanged=%d", res.Stats.DiffChanged, res.Stats.DiffUnchanged)
	}
	if res.Stats.PairsReused != n*(n-1)/2 || res.Stats.PairsReverified != 0 || res.Stats.SemQueries != 0 {
		t.Errorf("reused=%d reverified=%d queries=%d, want %d/0/0",
			res.Stats.PairsReused, res.Stats.PairsReverified, res.Stats.SemQueries, n*(n-1)/2)
	}
}

// TestDiffClassifiesVariableIndirection: editing a variable changes the
// compiled model of a file resource whose declaration text is untouched;
// the digest-level delta must classify that resource as changed.
func TestDiffClassifiesVariableIndirection(t *testing.T) {
	const baseSrc = `
$msg = 'alpha'
file {'/x': content => $msg }
file {'/y': content => 'static' }
`
	const headSrc = `
$msg = 'beta'
file {'/x': content => $msg }
file {'/y': content => 'static' }
`
	opts := DefaultOptions()
	baseSys, err := Load(baseSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	headSys, err := Load(headSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := diff.Compute(baseSys.ResourceDigests(), headSys.ResourceDigests())
	if !reflect.DeepEqual(d.Changed, []string{"File[/x]"}) {
		t.Errorf("changed = %v, want [File[/x]]", d.Changed)
	}
	if !reflect.DeepEqual(d.Unchanged, []string{"File[/y]"}) {
		t.Errorf("unchanged = %v, want [File[/y]]", d.Unchanged)
	}
	if len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Errorf("added=%v removed=%v, want none", d.Added, d.Removed)
	}
}

// TestDiffPruningShiftForcesReverify: the adversarial soundness case. The
// pair (u, u2) is unchanged between versions — both manage the same user
// marker, a syntactic conflict discharged by one semantic query — but the
// head version adds a file under /home/u. In base only u touches the
// /home/u tree, so pruning drops those definitive mkdirs from u's model;
// in head the new file resource also touches /home/u, the prune no longer
// applies, and the pair's content-addressed cache key changes with u's
// pruned model. Inheritance must miss and the pair must be re-solved
// (never served the stale base verdict), and the verdict must still match
// a full verification.
func TestDiffPruningShiftForcesReverify(t *testing.T) {
	const base = `
user {'u': managehome => true }
user {'u2': name => 'u' }
`
	// The file requires User['u'] so its genuine read-after-create of
	// /home/u is ordered away; (u, u2) stays the only concurrent
	// conflicting pair.
	const head = `
user {'u': managehome => true }
user {'u2': name => 'u' }
file {'/home/u/readme': content => 'hi', require => User['u'] }
`
	// Elimination would remove order-independent resources before pruning
	// ever counts path touchers, hiding the shift this test exists to
	// pin; disable it so the pruned models see the toucher change.
	mkOpts := func(cache *qcache.Cache) Options {
		opts := DefaultOptions()
		opts.SemanticCommute = true
		opts.Elimination = false
		opts.Parallelism = 1
		opts.SharedQueryCache = cache
		opts.Timeout = 2 * time.Minute
		return opts
	}
	load := func(src string, opts Options) *System {
		sys, err := Load(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	check := func(src string, opts Options) *DeterminismResult {
		res, err := load(src, opts).CheckDeterminism()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cache := qcache.New()
	warm := mkOpts(cache)
	baseRes := check(base, warm)
	if !baseRes.Deterministic {
		t.Fatal("base should be deterministic")
	}

	res, err := VerifyDiff(load(base, warm), load(head, warm))
	if err != nil {
		t.Fatal(err)
	}
	full := check(head, mkOpts(qcache.New()))
	if res.Deterministic != full.Deterministic {
		t.Fatalf("verdict differs: diff=%v full=%v", res.Deterministic, full.Deterministic)
	}
	if !reflect.DeepEqual(res.Counterexample, full.Counterexample) {
		t.Errorf("counterexamples differ:\ndiff: %+v\nfull: %+v", res.Counterexample, full.Counterexample)
	}

	// (u, u2) is unchanged at the manifest level but its pruned models
	// shifted: it must show up as an inherit miss, not a reused pair.
	if res.Stats.InheritMisses == 0 {
		t.Error("expected the unchanged (u, u2) pair to miss inheritance after the pruning shift")
	}
	if res.Stats.PairsReused != 0 {
		t.Errorf("pairs reused = %d, want 0 (the only unchanged pair's key shifted)", res.Stats.PairsReused)
	}
	if res.Stats.SemQueries == 0 {
		t.Error("the shifted pair must be re-solved, not inherited")
	}
}
