package core

import (
	"testing"

	"repro/internal/fs"
)

// Counterexample inputs are minimized: removing any single entry must stop
// the divergence.
func TestCounterexampleMinimal(t *testing.T) {
	for _, src := range []string{fig3aBroken, introExample, sshKeyBug} {
		s := load(t, src)
		res := checkDet(t, s)
		if res.Deterministic {
			t.Fatal("expected non-deterministic")
		}
		cex := res.Counterexample
		// Rebuild the two sequenced expressions from the reported orders.
		g := s.ExprGraph()
		names := s.ResourceNames()
		byName := map[string]fs.Expr{}
		for i, n := range g.Nodes() {
			byName[names[i]] = g.Label(n)
		}
		seq := func(order []string) fs.Expr {
			var exprs []fs.Expr
			for _, n := range order {
				exprs = append(exprs, byName[n])
			}
			return fs.SeqAll(exprs...)
		}
		e1, e2 := seq(cex.Order1), seq(cex.Order2)
		s1, s2 := fs.NewState(), fs.NewState()
		if !diverges(e1, e2, cex.Input, s1, s2) {
			t.Fatalf("witness does not diverge: %s", fs.StateString(cex.Input))
		}
		for _, p := range cex.Input.Paths() {
			reduced := cex.Input.Clone()
			delete(reduced, p)
			if diverges(e1, e2, reduced, s1, s2) {
				t.Errorf("witness not minimal: %s is removable from %s",
					p, fs.StateString(cex.Input))
			}
		}
	}
}

// WellFormedInit restricts witnesses to realizable machines and never
// changes the verdict on the benchmark examples (their bugs manifest on
// well-formed states).
func TestWellFormedInit(t *testing.T) {
	opts := DefaultOptions()
	opts.WellFormedInit = true
	for _, c := range []struct {
		src  string
		want bool
	}{
		{fig3aBroken, false},
		{fig3aFixed, true},
		{introExample, false},
		{fig2, true},
	} {
		s, err := Load(c.src, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.CheckDeterminism()
		if err != nil {
			t.Fatal(err)
		}
		if res.Deterministic != c.want {
			t.Errorf("well-formed verdict %v, want %v", res.Deterministic, c.want)
		}
		if !res.Deterministic {
			// The witness must itself be a well-formed tree.
			if !res.Counterexample.Input.IsWellFormed() {
				t.Errorf("witness not well-formed: %s",
					fs.StateString(res.Counterexample.Input))
			}
		}
	}
}
