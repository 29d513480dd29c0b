// Command perfbench is the repository's benchmark: it runs one workload
// against the real verification pipeline, natively (no modeled latency),
// checks every verdict against the input's known answer and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload paper-suite -seed 1 -seconds 20 -trace 0
//
// Workloads:
//
//	paper-suite  the 19 embedded manifests of internal/benchmarks
//	fleet-scale  seeded ~1k-resource fleet manifests, a minority buggy
//	daemon-mix   an in-process rehearsald under a seeded job mix
//
// Check and job times are CPU times at reference speed (reference.go):
// on a shared host wall time and the speed of a CPU second both drift by
// more than a regression bound, so the end-to-end metrics scale them, and
// the set-up time, by a reference computation timed through the same run.
// Wall-clock figures are printed as rows, not as metrics.
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it makes
// the separate traced run and prints the per-layer metrics, writing the
// spans as Chrome trace-event JSON under -out. Exit status is 0 on a
// correct run, 1 when any verdict differs from its known answer, 2 on a
// usage or harness error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// commit is set at link time by run.sh.
var commit = "unknown"

// endToEnd and perLayer are every metric the benchmark prints, with its
// unit; BENCHMARK.json lists the same (benchmark_test.go keeps them in
// step).
var endToEnd = []metricDef{
	{"verdict_cpu_geomean_ms", "ms"},
	{"cpu_s_per_verdict", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"puppet.parse_ms", "ms"}, {"puppet.eval_ms", "ms"}, {"puppet.resources", "count"},
	{"pkgdb.calls", "count"}, {"pkgdb.ms", "ms"},
	{"resources.compile_ms", "ms"}, {"resources.model_nodes", "count"},
	{"fs.intern_ms", "ms"}, {"fs.intern_hit_ratio", "ratio"},
	{"commute.analyze_ms", "ms"}, {"commute.pairs", "count"}, {"commute.commute_ms", "ms"}, {"commute.commute_ratio", "ratio"},
	{"prune.definitive_ms", "ms"},
	{"core.load_ms", "ms"}, {"core.determinism_ms", "ms"}, {"core.idempotence_ms", "ms"},
	{"core.eliminated_ratio", "ratio"}, {"core.paths_ratio", "ratio"}, {"core.sequences", "count"},
	{"core.exact_fallbacks", "count"}, {"core.sem_queries", "count"}, {"core.sem_cache_hit_ratio", "ratio"},
	{"core.solver_reuses", "count"}, {"core.encode_memo_hits", "count"},
	{"sym.encode_ms", "ms"}, {"sym.query_ms", "ms"}, {"smt.terms", "count"},
	{"sat.solve_ms", "ms"}, {"sat.conflicts", "count"}, {"sat.propagations", "count"}, {"sat.decisions", "count"},
	{"sat.propagations_per_s", "1/s"},
	{"qcache.hit_ratio", "ratio"}, {"qcache.coalesced", "count"}, {"qcache.evictions", "count"},
	{"service.submit_ms", "ms"}, {"service.queue_wait_ms", "ms"}, {"service.run_ms", "ms"},
	{"service.dedup_ratio", "ratio"}, {"service.rejected", "count"},
	{"go.alloc_bytes_per_verdict", "B"}, {"go.gc_cpu_frac", "ratio"},
	{"load.send_lag_p99_ms", "ms"}, {"trace.overhead_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*report, error){
	"paper-suite": runPaperSuite,
	"fleet-scale": runFleetScale,
	"daemon-mix":  runDaemonMix,
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for trace files
}

// hardLimit bounds every wait on a check or job in one run, so unfinished
// work counts as failed well before the 180 s a run may take.
const hardLimit = 160 * time.Second

// report is what a workload run measured.
type report struct {
	correct    bool
	attempted  int
	failed     int
	metrics    map[string]float64 // end-to-end or per-layer, by mode
	rows       []string           // per-input rows, printed before the metrics
	mismatches []string           // wrong verdicts
	spans      []span             // traced run only
}

func newReport() *report { return &report{correct: true, metrics: map[string]float64{}} }

// gate compares a verdict with its known answer.
func (r *report) gate(name string, got, want bool) {
	if got != want {
		r.correct = false
		r.mismatches = append(r.mismatches, fmt.Sprintf("%s: verdict %t, known answer %t", name, got, want))
	}
}

// workerEnv marks a process spawned to serve one check task.
const workerEnv = "PERFBENCH_WORKER"

func main() {
	if os.Getenv(workerEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "paper-suite, fleet-scale or daemon-mix")
	seed := fl.Int64("seed", 1, "input generation seed")
	seconds := fl.Int("seconds", 20, "measurement time per run")
	traceFlag := fl.Int("trace", 0, "1 makes the traced per-layer run")
	out := fl.String("out", ".bench_build", "directory for trace files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, out: *out}
	prov := provenance(cfg)
	rep, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	provLine, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", provLine)
	for _, row := range rep.rows {
		fmt.Println(row)
	}
	if cfg.trace {
		if err := writeTrace(cfg, rep.spans, prov); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	for _, m := range rep.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: WRONG VERDICT %s\n", m)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v := rep.metrics[d.name]
		fmt.Printf("metric %-28s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	last, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(last))
	if !rep.correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// provenance records what produced a result.
func provenance(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// writeTrace writes the traced run's spans as Chrome trace-event JSON.
func writeTrace(cfg config, spans []span, prov map[string]any) error {
	data, err := chromeTrace(spans, prov)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace %s (%d spans)\n", path, len(spans))
	return nil
}

// newRand returns the workload's seeded generator; stream separates the
// independent random choices of one workload.
func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}
