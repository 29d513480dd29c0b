package main

import (
	"context"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve worker tasks, as the benchmark
// binary does, so the tests below drive the real process-per-check path.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

// smallFleets is a CLI workload of two small fleets, one buggy.
func smallFleets(cfg config) []cliJob {
	shape := fleetShape{apps: 1, dirs: 2, files: 3, pkgs: 2}
	var jobs []cliJob
	for i, buggy := range []bool{false, true} {
		f := genFleet(newRand(cfg.seed, int64(i)), "small", shape, buggy)
		jobs = append(jobs, cliJob{task{Input: f.Name, Check: checkDet, Source: f.Source}, f.Deterministic})
	}
	return jobs
}

func TestCLIRun(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rep, err := runCLI(config{seed: 1, seconds: time.Millisecond, trace: traced}, smallFleets)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
			t.Fatalf("traced=%t: correct=%t attempted=%d failed=%d %v", traced, rep.correct, rep.attempted, rep.failed, rep.mismatches)
		}
		want := []string{"verdict_cpu_geomean_ms", "cpu_s_per_verdict", "peak_rss_mb", "setup_s"}
		if traced {
			want = []string{"puppet.parse_ms", "resources.compile_ms", "commute.commute_ms", "core.load_ms",
				"core.determinism_ms", "sym.encode_ms", "sat.solve_ms", "service.run_ms"}
			if len(rep.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		}
		for _, name := range want {
			if rep.metrics[name] <= 0 {
				t.Errorf("traced=%t: %s = %v, want > 0", traced, name, rep.metrics[name])
			}
		}
	}
}

func TestCLIRunCatchesWrongVerdict(t *testing.T) {
	lying := func(cfg config) []cliJob {
		jobs := smallFleets(cfg)
		jobs[1].expect = !jobs[1].expect
		return jobs
	}
	rep, err := runCLI(config{seed: 1, seconds: time.Millisecond}, lying)
	if err != nil {
		t.Fatal(err)
	}
	if rep.correct || len(rep.mismatches) == 0 {
		t.Fatal("a wrong known answer passed the verdict gate")
	}
}

func TestDaemonMixRun(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rep, err := runDaemonMix(config{seed: 2, seconds: time.Second, trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
			t.Fatalf("traced=%t: correct=%t attempted=%d failed=%d %v", traced, rep.correct, rep.attempted, rep.failed, rep.mismatches)
		}
		want := []string{"verdict_cpu_geomean_ms", "cpu_s_per_verdict", "peak_rss_mb", "setup_s"}
		if traced {
			want = []string{"service.submit_ms", "service.run_ms", "qcache.hit_ratio", "core.sem_queries", "sym.query_ms", "pkgdb.calls"}
		}
		for _, name := range want {
			if rep.metrics[name] <= 0 {
				t.Errorf("traced=%t: %s = %v, want > 0", traced, name, rep.metrics[name])
			}
		}
	}
}

func TestRefClock(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	c := &refClock{w: &worker{self: self, ctx: context.Background()}}
	for i := 0; i < 2; i++ { // the second call falls within refEvery
		if err := c.sample(); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.cpus) != 1 || c.cpus[0] <= 0 {
		t.Fatalf("reference samples %v, want one positive time", c.cpus)
	}
	if got, want := c.scale(), refNominalMS/c.cpus[0]; got != want {
		t.Errorf("scale = %v, want %v", got, want)
	}
}
