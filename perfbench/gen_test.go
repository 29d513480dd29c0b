package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/fs"
)

func TestSameSeedSameInputs(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		a := genFleets(newRand(seed, 1), fleetCount, fleetBuggy, fleetFull)
		b := genFleets(newRand(seed, 1), fleetCount, fleetBuggy, fleetFull)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: fleet inputs differ between two generations", seed)
		}
		da, db := genDaemon(seed, 2*time.Second), genDaemon(seed, 2*time.Second)
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("seed %d: daemon-mix inputs differ between two generations", seed)
		}
	}
	if reflect.DeepEqual(genFleets(newRand(1, 1), 2, 1, fleetFull), genFleets(newRand(2, 1), 2, 1, fleetFull)) {
		t.Fatal("seeds 1 and 2 generated the same fleets")
	}
}

func TestFleetShape(t *testing.T) {
	fleets := genFleets(newRand(7, 1), fleetCount, fleetBuggy, fleetFull)
	buggy := 0
	for _, f := range fleets {
		if !f.Deterministic {
			buggy++
		}
		if f.Resources != 1007 {
			t.Errorf("%s: %d resources, want 1007", f.Name, f.Resources)
		}
	}
	if buggy != fleetBuggy {
		t.Errorf("%d buggy fleets, want %d", buggy, fleetBuggy)
	}
}

func TestDaemonClassShares(t *testing.T) {
	d := genDaemon(3, 30*time.Second)
	n := map[string]int{}
	for _, j := range d.jobs {
		n[j.class]++
	}
	total := float64(len(d.jobs))
	if got := float64(n[classCold]) / total; got != coldShare {
		t.Errorf("cold share %.3f, want %.3f", got, coldShare)
	}
	// Early resubmits (no cold job old enough yet) turn warm, so the warm
	// share can only grow, and only a little.
	if got := float64(n[classWarm]) / total; got < warmShare || got > warmShare+0.05 {
		t.Errorf("warm share %.3f, want %.2f..%.2f", got, warmShare, warmShare+0.05)
	}
	// p50 and p99 must fall well inside one class each (resubmits are the
	// fastest class, cold jobs the slowest).
	resubmit := float64(n[classResubmit]) / total
	if resubmit < 0.5+0.05 || 1-float64(n[classCold])/total > 0.99-0.05 {
		t.Errorf("class shares put p50 or p99 near a class boundary: %v", n)
	}
}

// oracleInputs are the initial filesystems the concrete oracle runs from:
// an empty machine and one whose top-level directories exist.
func oracleInputs() []fs.State {
	base := fs.NewState()
	for _, p := range []string{"/etc", "/srv", "/usr", "/var"} {
		base[fs.ParsePath(p)] = fs.Content{Kind: fs.KindDir}
	}
	return []fs.State{fs.NewState(), base}
}

// oracleVerdict decides determinism by concrete permutation
// (internal/dynamic), independently of the symbolic checker.
func oracleVerdict(t *testing.T, src string, opts core.Options) bool {
	t.Helper()
	sys, err := core.Load(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := dynamic.Run(sys.ExprGraph(), dynamic.Options{Inputs: oracleInputs()})
	if !res.Exhaustive {
		t.Fatal("oracle enumeration was truncated")
	}
	return res.Deterministic
}

func TestFleetAnswersMatchOracle(t *testing.T) {
	small := fleetShape{apps: 1, dirs: 1, files: 1, pkgs: 2}
	for seed := int64(1); seed <= 6; seed++ {
		for _, buggy := range []bool{false, true} {
			f := genFleet(newRand(seed, 1), "f", small, buggy)
			if got := oracleVerdict(t, f.Source, core.DefaultOptions()); got != f.Deterministic {
				t.Errorf("seed %d buggy=%t: oracle says deterministic=%t, generator declared %t\n%s",
					seed, buggy, got, f.Deterministic, f.Source)
			}
		}
	}
}

func TestDaemonAnswersMatchOracle(t *testing.T) {
	d := genDaemon(5, time.Second)
	opts := core.DefaultOptions()
	opts.Provider = d.cat.provider()
	checked := 0
	for _, j := range d.jobs {
		if j.class == classResubmit || checked == 6 {
			continue
		}
		checked++
		if got := oracleVerdict(t, j.in.Source, opts); got != j.in.Deterministic {
			t.Errorf("%s: oracle says deterministic=%t, generator declared %t\n%s", j.in.Name, got, j.in.Deterministic, j.in.Source)
		}
	}
	if checked == 0 {
		t.Fatal("no daemon-mix jobs checked")
	}
}
