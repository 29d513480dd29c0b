package main

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestWorkloadsAreNative guards the benchmark against modeled latency and
// opt-in accelerators: every workload runs the engine with its defaults.
func TestWorkloadsAreNative(t *testing.T) {
	check := func(name string, o core.Options) {
		t.Helper()
		if o.PerQueryLatency != 0 || o.PerSolverLatency != 0 || o.PerEncodeLatency != 0 {
			t.Errorf("%s: modeled latency set: query %v, solver %v, encode %v", name, o.PerQueryLatency, o.PerSolverLatency, o.PerEncodeLatency)
		}
		if o.Portfolio.K != 0 || o.CacheDir != "" || o.FreshSolvers || o.DisableInterning {
			t.Errorf("%s: non-default engine options %+v", name, o)
		}
	}
	var tasks []task
	for _, w := range []func(config) []cliJob{paperJobs, fleetJobs} {
		for _, j := range w(config{seed: 1}) {
			tasks = append(tasks, j.task)
		}
	}
	d := genDaemon(1, time.Second)
	tasks = append(tasks, daemonTask(d, d.warmup[0], modeReplay))
	for _, tk := range tasks {
		check(tk.Input, tk.options())
	}

	cfg := daemonConfig(nil)
	if cfg.ModeledJobLatency != 0 {
		t.Errorf("daemon: ModeledJobLatency = %v", cfg.ModeledJobLatency)
	}
	if cfg.BaseOptions != nil || cfg.Cluster != nil || cfg.Faults != nil {
		t.Errorf("daemon: non-default service config %+v", cfg)
	}
	check("daemon base options", core.DefaultOptions())
}
