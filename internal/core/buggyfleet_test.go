package core

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fs"
)

// cexDigest is the SHA-256 of the whole counterexample: both orders, both
// outcomes and the three filesystems.
func cexDigest(cex *Counterexample) string {
	h := sha256.New()
	fmt.Fprintf(h, "input %s\norder1 %s\norder2 %s\n", fs.StateString(cex.Input),
		strings.Join(cex.Order1, ","), strings.Join(cex.Order2, ","))
	fmt.Fprintf(h, "ok1 %v ok2 %v\nout1 %s\nout2 %s\n", cex.Ok1, cex.Ok2, fs.StateString(cex.Out1), fs.StateString(cex.Out2))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestBuggyFleetGolden pins the result of checking a generated fleet of
// about 1k resources with one missing require, which takes the
// exact-configuration fallback and enumerates every resource through the
// symbolic encoder: the verdict, the counterexample and the Stats counters
// that depend neither on timing nor on process history. Changes to the
// symbolic state representation or to witness minimization must leave
// every value here unchanged.
func TestBuggyFleetGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("checks a 1k-resource fleet")
	}
	s, err := Load(fleetManifest(2, 10, true), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckDeterminism()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deterministic || res.Counterexample == nil {
		t.Fatalf("want a non-deterministic verdict with a counterexample, got deterministic=%v", res.Deterministic)
	}
	st := res.Stats
	got := fmt.Sprintf("resources=%d eliminated=%d pruned=%d total-paths=%d paths=%d sequences=%d sem-queries=%d "+
		"decisions=%d propagations=%d conflicts=%d restarts=%d",
		st.Resources, st.Eliminated, st.PrunedPaths, st.TotalPaths, st.Paths, st.Sequences, st.SemQueries,
		st.SolverDecisions, st.SolverPropagations, st.SolverConflicts, st.SolverRestarts)
	const wantStats = "resources=1007 eliminated=0 pruned=0 total-paths=1999 paths=1999 sequences=2 sem-queries=0 " +
		"decisions=381348 propagations=1607239 conflicts=854 restarts=8"
	if got != wantStats {
		t.Errorf("stats:\n got %s\nwant %s", got, wantStats)
	}
	cex := res.Counterexample
	if got := fs.StateString(cex.Input); got != "{/srv=dir}" {
		t.Errorf("input %s, want {/srv=dir}", got)
	}
	if !cex.Ok1 || cex.Ok2 {
		t.Errorf("ok1=%v ok2=%v, want true false", cex.Ok1, cex.Ok2)
	}
	// The two orders agree except where the package and its unrequired
	// configuration file swap, at the end.
	i := 0
	for i < len(cex.Order1) && i < len(cex.Order2) && cex.Order1[i] == cex.Order2[i] {
		i++
	}
	if i != 1005 || cex.Order1[i] != "Package[ngircd]" || cex.Order2[i] != "File[/etc/ngircd/ngircd.conf]" {
		t.Errorf("orders first differ at %d of %d/%d", i, len(cex.Order1), len(cex.Order2))
	}
	if got, want := cexDigest(cex), "eadfb33b1f9f7c688062fba9bc37f2f2e10eb51f493a64a7a92c38981c9336c8"; got != want {
		t.Errorf("counterexample digest %s, want %s", got, want)
	}
}

// BenchmarkCheckBuggyFleet times the whole determinacy check of generated
// fleets of about 1k and 2k resources with one missing require. The
// exact-configuration fallback applies every resource symbolically, so
// B/op here grows with the cost of one symbolic write: linear in fleet
// size while states share structure, quadratic if each write copies the
// whole symbolic filesystem.
func BenchmarkCheckBuggyFleet(b *testing.B) {
	for _, apps := range []int{10, 20} {
		s, err := Load(fleetManifest(2, apps, true), DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("resources=%d", s.Size()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := s.CheckDeterminism()
				if err != nil {
					b.Fatal(err)
				}
				if res.Deterministic {
					b.Fatal("buggy fleet checked deterministic")
				}
			}
		})
	}
}
