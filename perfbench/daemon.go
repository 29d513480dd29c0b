package main

// The daemon-mix workload and the service pass of the CLI workloads: an
// in-process rehearsald served over loopback HTTP.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/pkgdb"
	"repro/internal/qcache"
	"repro/internal/service"
)

// daemon-mix traffic: a seeded job mix of which coldShare are cold,
// warmShare warm and the rest resubmits, scheduled at daemonRate jobs per
// second for the traced open loop. The shares put the latency p50 (a
// printed row) well inside the resubmit class (0 to 0.6), which never
// queues behind solver work, and p99 well inside the cold one (0.7 to 1).
// The untraced closed
// loop sends the same jobs back to back; the schedule holds mixRate jobs
// per second of the run, more than the loop gets through.
const (
	daemonRate   = 40
	mixRate      = 400
	coldShare    = 0.30
	warmShare    = 0.10
	roleWidth    = 2 // services per role manifest
	roleServices = 160
	roleLibs     = 6
	warmupRoles  = 4
	// resubmitAge keeps resubmits off jobs that may still be running, so a
	// resubmit is answered by the result layer, not by waiting on the
	// original.
	resubmitAge = time.Second
	zipfS       = 1.2
	// replaySample is how many distinct role manifests the traced run
	// replays layer by layer.
	replaySample = 8
)

// Job classes.
const (
	classCold     = "cold"
	classWarm     = "warm"
	classResubmit = "resubmit"
)

var classes = []string{classCold, classWarm, classResubmit}

// mixJob is one scheduled submission.
type mixJob struct {
	class  string
	at     time.Duration // scheduled send time from the start of the loop
	in     input
	traced bool
}

// daemonInputs is everything one seed generates for daemon-mix.
type daemonInputs struct {
	cat    *roleCatalog
	warmup []input
	jobs   []mixJob
}

// genDaemon generates the catalog, the warm-up roles and the schedule.
func genDaemon(seed int64, seconds time.Duration) daemonInputs {
	cat := genRoleCatalog(newRand(seed, 11), roleServices, roleLibs)
	roles := newRoleGen(newRand(seed, 12), cat, roleWidth)
	d := daemonInputs{cat: cat}
	for i := 0; i < warmupRoles; i++ {
		d.warmup = append(d.warmup, roles.next())
	}
	d.jobs = schedule(newRand(seed, 13), roles, int(mixRate*seconds.Seconds()))
	return d
}

// schedule draws n jobs: exactly coldShare of them cold and warmShare warm
// (a resubmit with no cold job old enough becomes warm), in seeded order.
// Warm jobs and resubmits repeat earlier cold roles with zipfian
// popularity (the earliest roles are the most popular).
func schedule(rng *rand.Rand, roles *roleGen, n int) []mixJob {
	kinds := make([]string, n)
	nCold, nWarm := int(float64(n)*coldShare+0.5), int(float64(n)*warmShare+0.5)
	for i := range kinds {
		switch {
		case i < nCold:
			kinds[i] = classCold
		case i < nCold+nWarm:
			kinds[i] = classWarm
		default:
			kinds[i] = classResubmit
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i, k := range kinds {
		if k == classCold { // the first job must be cold
			kinds[0], kinds[i] = kinds[i], kinds[0]
			break
		}
	}

	interval := time.Second / daemonRate
	var cold []mixJob
	jobs := make([]mixJob, 0, n)
	pick := func(pool []mixJob) mixJob {
		if len(pool) == 1 {
			return pool[0]
		}
		z := rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1))
		return pool[z.Uint64()]
	}
	old := 0 // cold jobs old enough to resubmit
	for i, kind := range kinds {
		at := time.Duration(i) * interval
		for old < len(cold) && cold[old].at+resubmitAge <= at {
			old++
		}
		if kind == classResubmit && old == 0 {
			kind = classWarm
		}
		var j mixJob
		switch kind {
		case classCold:
			j = mixJob{class: classCold, in: roles.next()}
			cold = append(cold, mixJob{at: at, in: j.in})
		case classWarm:
			src := pick(cold).in
			j = mixJob{class: classWarm, in: input{
				Name:          fmt.Sprintf("%s-w%d", src.Name, i),
				Source:        fmt.Sprintf("# reworded %d\n%s", i, src.Source),
				Deterministic: src.Deterministic, Resources: src.Resources,
			}}
		default:
			j = mixJob{class: classResubmit, in: pick(cold[:old]).in}
		}
		j.at = at
		j.traced = i%2 == 1
		jobs = append(jobs, j)
	}
	return jobs
}

// daemon is one in-process rehearsald on loopback.
type daemon struct {
	sub    *core.Substrate
	svc    *service.Server
	ts     *httptest.Server
	client *http.Client
	// deadline bounds every wait on a job, so a stuck job fails the run
	// instead of overrunning it.
	deadline time.Time
}

// startDaemon starts the service with default options over provider.
func startDaemon(provider pkgdb.Provider) (*daemon, error) {
	sub, err := core.NewSubstrate(core.SubstrateConfig{Provider: provider})
	if err != nil {
		return nil, err
	}
	svc, err := service.New(daemonConfig(sub))
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(svc.Handler())
	tr := &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	return &daemon{sub: sub, svc: svc, ts: ts, client: &http.Client{Transport: tr, Timeout: time.Minute},
		deadline: time.Now().Add(hardLimit)}, nil
}

// daemonConfig is the service configuration of every benchmark daemon:
// the defaults (core.DefaultOptions, memory-only caches, no cluster), with
// one worker per CPU.
func daemonConfig(sub *core.Substrate) service.Config {
	return service.Config{Workers: runtime.NumCPU(), Substrate: sub}
}

// stop drains the service and closes the listener and client connections.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.svc.Shutdown(ctx)
	d.ts.Close()
	d.client.Transport.(*http.Transport).CloseIdleConnections()
	return err
}

// jobResult is one submission as the client saw it.
type jobResult struct {
	sent, posted, done time.Time
	view               service.JobView // final view
	deduped, rejected  bool
	err                error
}

// submit posts one job and waits for it on its Done channel.
func (d *daemon) submit(in input, semantic bool) jobResult {
	body, err := json.Marshal(service.JobRequest{
		Manifest:        in.Source,
		Checks:          []string{service.CheckDeterminism},
		SemanticCommute: semantic,
	})
	if err != nil {
		return jobResult{err: err}
	}
	r := jobResult{sent: time.Now()}
	resp, err := d.client.Post(d.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	var view service.JobView
	decErr := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	r.posted = time.Now()
	switch resp.StatusCode {
	case http.StatusAccepted, http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		r.rejected = true
		r.err = fmt.Errorf("rejected with %d", resp.StatusCode)
		return r
	default:
		r.err = fmt.Errorf("submit: status %d", resp.StatusCode)
		return r
	}
	if decErr != nil {
		r.err = decErr
		return r
	}
	r.deduped = view.Deduped
	job, ok := d.svc.Job(view.ID)
	if !ok {
		r.err = fmt.Errorf("job %s vanished", view.ID)
		return r
	}
	select {
	case <-job.Done():
	case <-time.After(time.Until(d.deadline)):
		r.err = fmt.Errorf("job %s still %s at the run's time limit", view.ID, job.State())
		return r
	}
	r.done = time.Now()
	r.view = job.View()
	if r.view.State != service.JobDone || r.view.Report == nil || r.view.Report.Determinism == nil {
		r.err = fmt.Errorf("job %s ended %s", view.ID, r.view.State)
	}
	return r
}

// record adds a finished job's spans (submit, then queue wait and run from
// the job's timestamps) and report counters.
func record(tr *tracer, c map[string]float64, req string, r jobResult, from time.Time, counted map[string]bool) {
	root := tr.add(0, "job", req, from, r.done)
	tr.add(root, "service.submit", req, r.sent, r.posted)
	created, _ := time.Parse(time.RFC3339Nano, r.view.Created)
	started, err1 := time.Parse(time.RFC3339Nano, r.view.Started)
	finished, err2 := time.Parse(time.RFC3339Nano, r.view.Finished)
	if err1 == nil && err2 == nil && !r.deduped {
		tr.add(root, "service.queue", req, created, started)
		tr.add(root, "service.run", req, started, finished)
	}
	c["service.submitted"]++
	if r.deduped {
		c["service.deduped"]++
	}
	if counted[r.view.ID] || r.view.Report == nil || r.view.Report.Stats == nil {
		return
	}
	counted[r.view.ID] = true
	s := r.view.Report.Stats
	c["resources"] += float64(s.Resources)
	c["eliminated"] += float64(s.Eliminated)
	c["paths"] += float64(s.Paths)
	c["total_paths"] += float64(s.TotalPaths)
	c["sequences"] += float64(s.Sequences)
	c["sem_queries"] += float64(s.SemQueries)
	c["sem_cache_hits"] += float64(s.SemCacheHits)
	c["solver_reuses"] += float64(s.SolverReuses)
	c["encode_memo_hits"] += float64(s.EncodeMemoHits)
	if s.Eliminated == 0 && s.PrunedPaths == 0 {
		c["exact_fallbacks"]++
	}
}

// servicePass sends inputs one at a time (a closed loop) through an
// in-process service with the CLI workload's options (determinacy only,
// no semantic commutativity), for the service and cache layer metrics.
func servicePass(tr *tracer, rep *report, inputs []input, c map[string]float64) error {
	d, err := startDaemon(nil)
	if err != nil {
		return err
	}
	counted := map[string]bool{}
	svc := map[string]float64{}
	for _, in := range inputs {
		r := d.submit(in, false)
		rep.attempted++
		if r.err != nil {
			rep.failed++
			if r.rejected {
				c["service.rejected"]++
			}
			continue
		}
		rep.gate("service/"+in.Name, r.view.Report.Determinism.Ok, in.Deterministic)
		record(tr, svc, "service/"+in.Name, r, r.sent, counted)
	}
	addQcache(c, d.sub.QueryCacheStats())
	c["service.submitted"] += svc["service.submitted"]
	c["service.deduped"] += svc["service.deduped"]
	return d.stop()
}

// addQcache records verdict-cache counters.
func addQcache(c map[string]float64, s qcache.Stats) {
	c["qcache.hits"] += float64(s.Hits)
	c["qcache.misses"] += float64(s.Misses)
	c["qcache.coalesced"] += float64(s.Coalesced)
	c["qcache.evictions"] += float64(s.Evictions)
}

// qcacheDelta returns the counters accumulated between two snapshots.
func qcacheDelta(after, before qcache.Stats) qcache.Stats {
	return qcache.Stats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Coalesced: after.Coalesced - before.Coalesced,
		Evictions: after.Evictions - before.Evictions,
	}
}

// runDaemonMix measures daemon-mix: set-up (generation, daemon start and
// warm-up) several times, then the job mix on the last daemon started.
// The untraced run sends the jobs in a closed loop, one at a time, so each
// job's CPU time is the process's CPU time between its send and its Done
// (reported at reference speed, as the CLI workloads' check times are);
// the traced run sends them in the open loop at daemonRate.
func runDaemonMix(cfg config) (*report, error) {
	var d *daemon
	var in daemonInputs
	setupTimes := make([]float64, 0, 5)
	for i := 0; i < 5; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		in = genDaemon(cfg.seed, cfg.seconds)
		var err error
		if d, err = startDaemon(in.cat.provider()); err != nil {
			return nil, err
		}
		for _, w := range in.warmup {
			if r := d.submit(w, true); r.err != nil {
				d.stop()
				return nil, fmt.Errorf("warm-up job: %w", r.err)
			}
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	if cfg.trace {
		return tracedDaemon(cfg, d, in, setupTimes)
	}

	self, err := os.Executable()
	if err != nil {
		d.stop()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	ref := &refClock{w: &worker{self: self, ctx: ctx}}

	rep := newReport()
	start := time.Now()
	var results []jobResult
	var cpus []time.Duration
	var cpu time.Duration
	for _, j := range in.jobs {
		if time.Since(start) >= cfg.seconds {
			break
		}
		if err := ref.sample(); err != nil {
			d.stop()
			return nil, err
		}
		c0 := processCPU()
		results = append(results, d.submit(j.in, true))
		cpus = append(cpus, processCPU()-c0)
		cpu += cpus[len(cpus)-1]
	}
	elapsed := time.Since(start)
	if err := d.stop(); err != nil {
		return nil, err
	}
	if err := ref.sample(); err != nil {
		return nil, err
	}

	cpuByClass := map[string][]float64{}
	wallByClass := map[string][]float64{}
	var every []float64
	for i, r := range results {
		j := in.jobs[i]
		rep.attempted++
		if r.err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s/%s: %v\n", j.class, j.in.Name, r.err)
			continue
		}
		rep.gate(j.class+"/"+j.in.Name, r.view.Report.Determinism.Ok, j.in.Deterministic)
		ms := float64(r.done.Sub(r.sent)) / 1e6
		every = append(every, ms)
		wallByClass[j.class] = append(wallByClass[j.class], ms)
		cpuByClass[j.class] = append(cpuByClass[j.class], float64(cpus[i])/1e6)
	}
	completed := len(every)

	var classMedians []float64
	for _, cl := range classes {
		w, c := wallByClass[cl], cpuByClass[cl]
		rep.rows = append(rep.rows, fmt.Sprintf("class %-9s median_ms %10.3f p99_ms %10.3f cpu_median_ms %10.3f samples %d",
			cl, median(w), quantile(w, 0.99), median(c), len(c)))
		if len(c) > 0 {
			classMedians = append(classMedians, median(c))
		}
	}
	rep.rows = append(rep.rows, fmt.Sprintf("wall verdicts_per_s %.4f job_p50_ms %.3f job_p99_ms %.3f",
		float64(completed)/elapsed.Seconds(), median(every), quantile(every, 0.99)))
	rep.rows = append(rep.rows, ref.row(), fmt.Sprintf("setup median_s %.6f", median(setupTimes)))

	m := rep.metrics
	m["verdict_cpu_geomean_ms"] = geomean(classMedians) * ref.scale()
	m["cpu_s_per_verdict"] = ratio(cpu.Seconds(), float64(completed)) * ref.scale()
	m["peak_rss_mb"] = float64(peakRSS()) / (1 << 20)
	m["ok_frac"] = ratio(float64(rep.attempted-rep.failed), float64(rep.attempted))
	m["setup_s"] = median(setupTimes) * ref.scale()
	return rep, nil
}

// tracedDaemon makes the traced run of daemon-mix: the open loop at
// daemonRate over the jobs scheduled within the measurement time, every
// other job carrying spans, then the whole-pipeline calls and the layer
// replay on a sample of roles in worker processes.
func tracedDaemon(cfg config, d *daemon, in daemonInputs, setupTimes []float64) (*report, error) {
	jobs := in.jobs
	for i, j := range jobs {
		if j.at >= cfg.seconds {
			jobs = jobs[:i]
			break
		}
	}
	rep := newReport()
	tr := newTracer()
	c := map[string]float64{}
	counted := map[string]bool{}
	qBefore := d.sub.QueryCacheStats()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	results := make([]jobResult, len(jobs))
	lags := make([]float64, len(jobs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range jobs {
		due := start.Add(jobs[i].at)
		time.Sleep(time.Until(due))
		lags[i] = float64(time.Since(due)) / 1e6
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = d.submit(jobs[i].in, true)
		}(i)
	}
	wg.Wait()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	qAfter := d.sub.QueryCacheStats()
	if err := d.stop(); err != nil {
		return nil, err
	}

	byClass := map[string][]float64{}
	tracedByClass := map[string][]float64{}
	completed := 0
	for i, j := range jobs {
		r := results[i]
		rep.attempted++
		if r.err != nil {
			rep.failed++
			if r.rejected {
				c["service.rejected"]++
			}
			continue
		}
		rep.gate(j.class+"/"+j.in.Name, r.view.Report.Determinism.Ok, j.in.Deterministic)
		due := start.Add(j.at)
		ms := float64(r.done.Sub(due)) / 1e6
		completed++
		if j.traced {
			tracedByClass[j.class] = append(tracedByClass[j.class], ms)
			record(tr, c, fmt.Sprintf("%s/%d", j.class, i), r, due, counted)
		} else {
			byClass[j.class] = append(byClass[j.class], ms)
			record(nil, c, "", r, due, counted)
		}
	}
	for _, cl := range classes {
		xs := append(append([]float64(nil), byClass[cl]...), tracedByClass[cl]...)
		rep.rows = append(rep.rows, fmt.Sprintf("class %-9s median_ms %10.3f p99_ms %10.3f samples %d",
			cl, median(xs), quantile(xs, 0.99), len(xs)))
	}
	rep.rows = append(rep.rows, fmt.Sprintf("load offered_rps %d send_lag_p99_ms %.3f", daemonRate, quantile(lags, 0.99)))

	// The overhead compares each class's traced median with its untraced
	// median.
	var ratios []float64
	for _, cl := range classes {
		if a, b := median(tracedByClass[cl]), median(byClass[cl]); a > 0 && b > 0 {
			ratios = append(ratios, a/b)
		}
	}
	c["overhead_ratio"] = geomean(ratios) - 1
	addQcache(c, qcacheDelta(qAfter, qBefore))
	c["verdicts"] = float64(completed)
	c["alloc_bytes"] = float64(msAfter.TotalAlloc - msBefore.TotalAlloc)
	// The daemon's GC share is the process's: weight 1, no per-check mix.
	c["gc_weighted"], c["gc_ms"] = msAfter.GCCPUFraction, 1
	c["send_lag_p99_ms"] = quantile(lags, 0.99)

	// Whole-pipeline calls and the layer replay on a sample of distinct
	// roles, each in a fresh worker process with the daemon's options.
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	w := &worker{self: self, ctx: ctx}
	seen := map[string]bool{}
	for _, j := range jobs {
		if j.class != classCold || seen[j.in.Name] || len(seen) == replaySample {
			continue
		}
		seen[j.in.Name] = true
		for _, mode := range []string{modeTrace, modeReplay} {
			t := daemonTask(in, j.in, mode)
			s := w.run(t)
			rep.attempted++
			if s.err != nil {
				rep.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", t.Input, s.err)
				continue
			}
			if mode == modeTrace {
				rep.gate(t.Input, s.out.Verdict, j.in.Deterministic)
			} else {
				addCounters(c, s.out.Counters)
			}
			tr.merge(s.out.Spans, s.started.Sub(tr.origin), 0)
		}
	}
	rep.spans = tr.snapshot()
	rep.metrics = layerMetrics(rep.spans, c)
	rep.rows = append(rep.rows, fmt.Sprintf("setup median_s %.6f", median(setupTimes)))
	return rep, nil
}

// daemonTask is a worker task checking a daemon-mix role under the
// daemon's options: semantic commutativity on, the roles' catalog.
func daemonTask(d daemonInputs, in input, mode string) task {
	return task{Input: in.Name, Check: checkDet, Mode: mode, Source: in.Source, SemanticCommute: true, Packages: d.cat.packages}
}

// processCPU returns this process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns this process's peak resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // KiB on Linux
}
