package experiments

import (
	"testing"
	"time"
)

const timeout = 2 * time.Minute

func TestFig11aShape(t *testing.T) {
	rows, err := Fig11a(timeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.TimedOut {
			t.Errorf("%s timed out", r.Name)
			continue
		}
		// The paper's claim: pruning never increases the modeled paths,
		// and on the deterministic benchmarks the reduction is drastic.
		if r.Pruned > r.Unpruned {
			t.Errorf("%s: pruned %d > unpruned %d", r.Name, r.Pruned, r.Unpruned)
		}
		if r.Unpruned == 0 {
			t.Errorf("%s: no modeled paths", r.Name)
		}
	}
	// At least half the suite should shrink to nothing (fully eliminated).
	empty := 0
	for _, r := range rows {
		if r.Pruned == 0 {
			empty++
		}
	}
	if empty < 6 {
		t.Errorf("only %d benchmarks fully eliminated", empty)
	}
}

func TestFig13Shape(t *testing.T) {
	rows, err := Fig13(timeout, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	factorial := []int{2, 6, 24}
	for i, r := range rows {
		if r.TimedOut {
			t.Fatalf("n=%d timed out", r.N)
		}
		if !r.Deterministic {
			t.Errorf("n=%d: not deterministic", r.N)
		}
		if r.Sequences != factorial[i] {
			t.Errorf("n=%d: %d sequences, want %d", r.N, r.Sequences, factorial[i])
		}
	}
	// Super-linear growth.
	if rows[2].Time < rows[0].Time {
		t.Errorf("no growth: n=2 %v vs n=4 %v", rows[0].Time, rows[2].Time)
	}
}

func TestBugsShape(t *testing.T) {
	rows, err := Bugs(timeout)
	if err != nil {
		t.Fatal(err)
	}
	buggy := 0
	for _, r := range rows {
		if r.TimedOut {
			t.Fatalf("%s timed out", r.Name)
		}
		if !r.Deterministic {
			buggy++
			if !r.FixVerifies {
				t.Errorf("%s: fix does not verify", r.Name)
			}
		}
	}
	if buggy != 6 {
		t.Errorf("found %d bugs, want 6 (paper section 6)", buggy)
	}
}

func TestFig12Shape(t *testing.T) {
	rows, err := Fig12(timeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.TimedOut {
			t.Errorf("%s timed out", r.Name)
			continue
		}
		if !r.Idempotent {
			t.Errorf("%s: not idempotent", r.Name)
		}
	}
}
