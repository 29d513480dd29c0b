package main

// The CLI-style workloads: one client runs checks in a closed loop, each
// check in a fresh worker process.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"

	"repro/internal/benchmarks"
)

// cliJob is one check of a CLI workload with its known answer.
type cliJob struct {
	task   task
	expect bool
}

// sample is one worker run as the client saw it.
type sample struct {
	out     outcome
	wall    time.Duration // spawn to exit
	cpu     time.Duration // user + sys of the worker
	maxRSS  int64         // bytes
	started time.Time
	err     error
}

// fleet-scale corpus: fleetCount fleets of fleetFull size per run, of
// which fleetBuggy carry one injected missing dependency.
const (
	fleetCount = 5
	fleetBuggy = 1
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 9

func runPaperSuite(cfg config) (*report, error) { return runCLI(cfg, paperJobs) }

func runFleetScale(cfg config) (*report, error) { return runCLI(cfg, fleetJobs) }

// paperJobs are the paper's corpus: a determinacy check of every embedded
// manifest, known answer from its -nondet or -fixed name, and an
// idempotence check of the Verified ones, all idempotent.
func paperJobs(config) []cliJob {
	var jobs []cliJob
	for _, name := range benchmarks.Names() {
		b, err := benchmarks.Get(name)
		if err != nil {
			panic(err) // Names lists only embedded manifests
		}
		jobs = append(jobs, cliJob{task{Input: name + "/" + checkDet, Check: checkDet, Source: b.Source}, b.Deterministic})
	}
	for _, b := range benchmarks.Verified() {
		jobs = append(jobs, cliJob{task{Input: b.Name + "/" + checkIdem, Check: checkIdem, Source: b.Source}, true})
	}
	return jobs
}

// fleetJobs are the seed's generated fleets, each with a determinacy check
// whose known answer the generator declared.
func fleetJobs(cfg config) []cliJob {
	fleets := genFleets(newRand(cfg.seed, 1), fleetCount, fleetBuggy, fleetFull)
	jobs := make([]cliJob, len(fleets))
	for i, f := range fleets {
		jobs[i] = cliJob{task{Input: f.Name + "/" + checkDet, Check: checkDet, Source: f.Source}, f.Deterministic}
	}
	return jobs
}

// runCLI measures a CLI workload. The untraced run makes closed-loop passes
// over every check, each pass in a fresh seeded order, as many as end
// closest to the measurement time (at least one). The traced run runs
// every check untraced and traced back to back, then replays its layers,
// then sends the inputs through an in-process service.
func runCLI(cfg config, setup func(config) []cliJob) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	w := &worker{self: self, ctx: ctx}

	// Set-up: generate the inputs and start one worker, as every check
	// will (the first spawn pages the binary in).
	var jobs []cliJob
	setupTimes := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		jobs = setup(cfg)
		warm := jobs[0].task
		warm.Source = "notify { 'warm-up': }\n"
		if s := w.run(warm); s.err != nil {
			return nil, fmt.Errorf("warm-up worker: %w", s.err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}

	rep := newReport()
	rng := newRand(cfg.seed, 2)
	// The untraced run samples the reference clock between checks.
	var ref *refClock
	var refErr error
	if !cfg.trace {
		ref = &refClock{w: w}
	}
	// pass runs every check once per mode, in a fresh seeded order; the
	// modes of one check run back to back, so they see the same host.
	pass := func(modes ...string) ([][]sample, time.Duration) {
		order := rng.Perm(len(jobs))
		samples := make([][]sample, len(modes))
		for m := range samples {
			samples[m] = make([]sample, len(jobs))
		}
		t0 := time.Now()
		for _, i := range order {
			if ref != nil && refErr == nil {
				refErr = ref.sample()
			}
			for m, mode := range modes {
				t := jobs[i].task
				t.Mode = mode
				s := w.run(t)
				samples[m][i] = s
				rep.attempted++
				switch {
				case s.err != nil:
					rep.failed++
					fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", t.Input, s.err)
				case mode != modeReplay:
					rep.gate(t.Input, s.out.Verdict, jobs[i].expect)
				}
			}
		}
		return samples, time.Since(t0)
	}

	if cfg.trace {
		return tracedCLI(rep, jobs, pass, setupTimes)
	}

	var all [][]sample
	var wall time.Duration
	start := time.Now()
	for {
		samples, d := pass(modeRun)
		all = append(all, samples[0])
		wall += d
		// Stop where the run ends closest to the measurement time.
		if time.Since(start)+d/2 >= cfg.seconds || ctx.Err() != nil {
			break
		}
	}
	if refErr == nil {
		refErr = ref.sample() // once more after the last check, unless one just ran
	}
	if refErr != nil {
		return nil, refErr
	}

	// Per-input medians, then the end-to-end metrics. Check time is
	// measured as the worker's CPU time from manifest text to verdict, at
	// reference speed: on a shared host wall time also counts the time
	// other tenants hold the CPUs, and the speed of a CPU second drifts,
	// each by more than any bound allows. The wall-clock figures are
	// printed as rows.
	var cpuMedians, wallMedians []float64
	var cpu time.Duration
	var peak int64
	checks := 0
	for i, j := range jobs {
		var cms, wms []float64
		for _, samples := range all {
			s := samples[i]
			cpu += s.cpu
			peak = max(peak, s.maxRSS)
			if s.err == nil {
				cms = append(cms, s.out.CPUMS)
				wms = append(wms, s.out.MS)
				checks++
			}
		}
		if len(cms) > 0 {
			cpuMedians = append(cpuMedians, median(cms))
			wallMedians = append(wallMedians, median(wms))
		}
		rep.rows = append(rep.rows, fmt.Sprintf("input %-32s median_ms %10.3f cpu_median_ms %10.3f samples %d",
			j.task.Input, median(wms), median(cms), len(cms)))
	}
	// The wall rate's time includes the reference workers'.
	rep.rows = append(rep.rows, fmt.Sprintf("wall verdicts_per_s %.4f verdict_geomean_ms %.3f input_p50_ms %.3f input_max_ms %.3f",
		float64(checks)/wall.Seconds(), geomean(wallMedians), median(wallMedians), quantile(wallMedians, 1)))
	rep.rows = append(rep.rows, ref.row(), fmt.Sprintf("setup median_s %.6f", median(setupTimes)))
	m := rep.metrics
	m["verdict_cpu_geomean_ms"] = geomean(cpuMedians) * ref.scale()
	m["cpu_s_per_verdict"] = ratio(cpu.Seconds(), float64(checks)) * ref.scale()
	m["peak_rss_mb"] = float64(peak) / (1 << 20)
	m["ok_frac"] = ratio(float64(rep.attempted-rep.failed), float64(rep.attempted))
	m["setup_s"] = median(setupTimes) * ref.scale()
	return rep, nil
}

// tracedCLI makes the traced run of a CLI workload.
func tracedCLI(rep *report, jobs []cliJob, pass func(...string) ([][]sample, time.Duration), setupTimes []float64) (*report, error) {
	tr := newTracer()
	checks, _ := pass(modeRun, modeTrace)
	replays, _ := pass(modeReplay)

	c := map[string]float64{}
	var overhead []float64
	var verdicts float64
	var alloc uint64
	var lags []float64
	for i := range jobs {
		p, t, r := checks[0][i], checks[1][i], replays[0][i]
		if p.err == nil && t.err == nil {
			overhead = append(overhead, t.out.MS/p.out.MS)
		}
		if t.err == nil {
			verdicts++
			alloc += t.out.AllocBytes
			c["gc_weighted"] += t.out.GCCPUFrac * t.out.MS
			c["gc_ms"] += t.out.MS
			lags = append(lags, float64(t.wall)/1e6-t.out.MS)
			addCounters(c, t.out.Counters)
			tr.merge(t.out.Spans, t.started.Sub(tr.origin), 0)
		}
		if r.err == nil {
			addCounters(c, r.out.Counters)
			tr.merge(r.out.Spans, r.started.Sub(tr.origin), 0)
		}
	}
	c["verdicts"] = verdicts
	c["alloc_bytes"] = float64(alloc)
	c["send_lag_p99_ms"] = quantile(lags, 0.99)
	c["overhead_ratio"] = geomean(overhead) - 1

	// The same inputs through an in-process service, determinacy only.
	var inputs []input
	for _, j := range jobs {
		if j.task.Check == checkDet {
			inputs = append(inputs, input{Name: j.task.Input, Source: j.task.Source, Deterministic: j.expect})
		}
	}
	if err := servicePass(tr, rep, inputs, c); err != nil {
		return nil, err
	}
	rep.spans = tr.snapshot()
	rep.metrics = layerMetrics(rep.spans, c)
	rep.rows = append(rep.rows, fmt.Sprintf("setup median_s %.6f", median(setupTimes)))
	return rep, nil
}

// addCounters adds src into dst.
func addCounters(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// worker spawns check worker processes.
type worker struct {
	self string
	ctx  context.Context
}

// run executes one task in a fresh process and waits for it to exit.
func (w *worker) run(t task) sample {
	data, err := json.Marshal(t)
	if err != nil {
		return sample{err: err}
	}
	cmd := exec.CommandContext(w.ctx, w.self)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.Stdin = bytes.NewReader(data)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	s := sample{started: time.Now()}
	err = cmd.Run()
	s.wall = time.Since(s.started)
	if ps := cmd.ProcessState; ps != nil {
		s.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			s.maxRSS = ru.Maxrss << 10 // KiB on Linux
		}
	}
	if err != nil {
		s.err = fmt.Errorf("worker: %w", err)
		return s
	}
	if err := json.Unmarshal(stdout.Bytes(), &s.out); err != nil {
		s.err = fmt.Errorf("worker output: %w", err)
		return s
	}
	if s.out.Err != "" {
		s.err = fmt.Errorf("check: %s", s.out.Err)
	}
	return s
}
