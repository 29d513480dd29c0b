package benchmarks

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/pkgdb"
	"repro/internal/sat"
	"repro/internal/sym"
)

// pairQuery is one domain-overlapping resource pair of a manifest: a
// commutativity query syntactic analysis cannot discharge, i.e. a
// candidate solver query of a cold check.
type pairQuery struct {
	manifest, pair string
	e1, e2         fs.Expr
}

// overlappingPairs harvests every domain-overlapping resource pair of a
// manifest's expression graph.
func overlappingPairs(t *testing.T, manifest, src string, opts core.Options) []pairQuery {
	t.Helper()
	sys, err := core.Load(src, opts)
	if err != nil {
		t.Fatalf("%s: %v", manifest, err)
	}
	g := sys.ExprGraph()
	var exprs []fs.Expr
	for _, n := range g.Nodes() {
		exprs = append(exprs, g.Label(n))
	}
	var out []pairQuery
	for i := range exprs {
		for j := i + 1; j < len(exprs); j++ {
			d2 := fs.Dom(exprs[j])
			for p := range fs.Dom(exprs[i]) {
				if _, ok := d2[p]; ok {
					out = append(out, pairQuery{manifest, fmt.Sprintf("%d-%d", i, j), exprs[i], exprs[j]})
					break
				}
			}
		}
	}
	return out
}

// hostingDepsCatalog is the catalog internal/core's TestDiffHostingEdit
// checks hosting.pp under: the three LAMP packages' default closures
// plus a base library all three depend on, so every package pair needs a
// shared-closure semantic query — the heaviest queries of the suite.
func hostingDepsCatalog(t *testing.T) pkgdb.Provider {
	t.Helper()
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
			t.Fatal(err)
		}
		for _, p := range closure {
			q := *p
			if q.Name == name {
				q.Depends = append(append([]string(nil), q.Depends...), lib.Name)
			}
			cat.Add("ubuntu", &q)
		}
	}
	return cat
}

func witnessString(cex *sym.Counterexample) string {
	if cex == nil {
		return ""
	}
	return cex.String()
}

// TestPortfolioAgreesOnSeedQueries solves every overlapping resource
// pair of the 19 seed manifests (plus hosting under the enriched LAMP
// catalog) under each portfolio config and as real k=2 and k=4 races.
// Configs steer search order only: every solve must return the same
// verdict and the byte-identical canonical witness. This is the check of
// config independence on real queries; the differential fuzzer in
// internal/sym covers random ones.
func TestPortfolioAgreesOnSeedQueries(t *testing.T) {
	const budget = 200_000
	opts := core.DefaultOptions()
	var harvest []pairQuery
	for _, name := range Names() {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		harvest = append(harvest, overlappingPairs(t, name, b.Source, opts)...)
	}
	hosting, err := Get("hosting")
	if err != nil {
		t.Fatal(err)
	}
	enriched := opts
	enriched.Provider = hostingDepsCatalog(t)
	harvest = append(harvest, overlappingPairs(t, "hosting+deps", hosting.Source, enriched)...)
	// A buggy manifest and its fix share most pairs; solve each distinct
	// query once.
	var queries []pairQuery
	seen := make(map[fs.Digest]bool)
	for _, q := range harvest {
		if d := fs.DigestExpr(fs.Seq{E1: q.e1, E2: q.e2}); !seen[d] {
			seen[d] = true
			queries = append(queries, q)
		}
	}
	// Guard against the harvest silently shrinking to a set too small to
	// exercise canonical witness extraction.
	if len(queries) < 16 {
		t.Fatalf("harvested %d queries, want >=16", len(queries))
	}

	cfgs := sat.PortfolioConfigs(4)
	witnesses := 0
	for _, q := range queries {
		var want bool
		var wantCex string
		for i, cfg := range cfgs {
			ok, cex, err := sym.Commutes(q.e1, q.e2, sym.Options{Budget: budget, Config: cfg})
			if err != nil {
				t.Fatalf("%s pair %s config %s: %v", q.manifest, q.pair, cfg.Name, err)
			}
			if i == 0 {
				want, wantCex = ok, witnessString(cex)
				continue
			}
			if ok != want || witnessString(cex) != wantCex {
				t.Errorf("%s pair %s: config %s gave commutes=%v, default %v; witnesses identical: %v",
					q.manifest, q.pair, cfg.Name, ok, want, witnessString(cex) == wantCex)
			}
		}
		if !want {
			witnesses++
		}
		for _, k := range []int{2, 4} {
			ok, cex, w, err := sym.PortfolioCommutes(q.e1, q.e2, cfgs[:k], sym.Options{Budget: budget})
			if err != nil {
				t.Fatalf("%s pair %s k=%d race: %v", q.manifest, q.pair, k, err)
			}
			if w < 0 || w >= k {
				t.Errorf("%s pair %s k=%d race: winner index %d out of range", q.manifest, q.pair, k, w)
			}
			if ok != want || witnessString(cex) != wantCex {
				t.Errorf("%s pair %s k=%d race: commutes=%v, single config %v; witnesses identical: %v",
					q.manifest, q.pair, k, ok, want, witnessString(cex) == wantCex)
			}
		}
	}
	if witnesses < 3 {
		t.Errorf("only %d of %d queries have witnesses, want >=3 for canonical-extraction coverage", witnesses, len(queries))
	}
	t.Logf("%d queries, %d with witnesses, agree across %d configs and k=2/4 races", len(queries), witnesses, len(cfgs))
}
