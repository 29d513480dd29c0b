package main

// The check worker. CLI-style checks run one per fresh process, as a CLI
// user pays them: a cold verdict cache, fresh solver pools, a fresh
// interner and fresh commute/prune memos (the last two have no public
// reset). The parent writes one task as JSON on the worker's stdin and
// reads one outcome as JSON from its stdout.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/pkgdb"
)

// Check kinds.
const (
	checkDet  = "determinism"
	checkIdem = "idempotence"
)

// Worker modes.
const (
	modeRun    = "run"    // the check, untraced
	modeTrace  = "trace"  // the check, with spans around the pipeline calls
	modeReplay = "replay" // each layer's public functions, one after another
	// modeReference times the reference computation (reference.go).
	modeReference = "reference"
)

// task is one check for a worker process.
type task struct {
	Input  string `json:"input"` // row name, e.g. "amavis/idempotence"
	Check  string `json:"check"`
	Mode   string `json:"mode"`
	Source string `json:"source"`
	// SemanticCommute mirrors the daemon's option for daemon-mix inputs.
	SemanticCommute bool `json:"semantic_commute,omitempty"`
	// Packages, when set, replace the built-in catalog.
	Packages []*pkgdb.Package `json:"packages,omitempty"`
}

// outcome is a worker's answer.
type outcome struct {
	Verdict    bool               `json:"verdict"`
	MS         float64            `json:"ms"`     // manifest text to verdict, wall time
	CPUMS      float64            `json:"cpu_ms"` // the same span in CPU time, all threads
	Err        string             `json:"err,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
	Counters   map[string]float64 `json:"counters,omitempty"`
	AllocBytes uint64             `json:"alloc_bytes"`
	GCCPUFrac  float64            `json:"gc_cpu_frac"`
}

// options returns the engine options a task runs under: the defaults,
// plus the catalog and semantic commutativity of daemon-mix inputs.
func (t task) options() core.Options {
	opts := core.DefaultOptions()
	opts.SemanticCommute = t.SemanticCommute
	if len(t.Packages) > 0 {
		c := pkgdb.NewCatalog()
		for _, p := range t.Packages {
			c.Add("ubuntu", p)
		}
		opts.Provider = c
	}
	return opts
}

// childMain serves one task on stdin/stdout.
func childMain() int {
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: %v\n", err)
		return 2
	}
	var t task
	if err := json.Unmarshal(data, &t); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: bad task: %v\n", err)
		return 2
	}
	var out outcome
	switch t.Mode {
	case modeReplay:
		out = replay(t)
	case modeReference:
		out = referenceOutcome()
	default:
		out = check(t)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.AllocBytes = ms.TotalAlloc
	out.GCCPUFrac = ms.GCCPUFraction
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: %v\n", err)
		return 2
	}
	return 0
}

// check runs one check from manifest text to verdict, recording spans
// around the whole-pipeline calls in trace mode.
func check(t task) outcome {
	var tr *tracer
	if t.Mode == modeTrace {
		tr = newTracer()
	}
	opts := t.options()
	out := outcome{Counters: map[string]float64{}}
	start, cpuStart := time.Now(), processCPU()
	root := tr.start(0, "check."+t.Check, t.Input)
	fail := func(err error) outcome {
		tr.finish(root)
		out.Err = err.Error()
		out.Spans = tr.snapshot()
		return out
	}

	sp := tr.start(root, "core.Load", t.Input)
	sys, err := core.Load(t.Source, opts)
	tr.finish(sp)
	if err != nil {
		return fail(err)
	}

	switch t.Check {
	case checkDet:
		sp = tr.start(root, "core.CheckDeterminism", t.Input)
		res, err := sys.CheckDeterminism()
		tr.finish(sp)
		if err != nil {
			return fail(err)
		}
		out.Verdict = res.Deterministic
		addStats(out.Counters, res.Stats)
	case checkIdem:
		sp = tr.start(root, "core.CheckIdempotence", t.Input)
		res, err := sys.CheckIdempotence()
		tr.finish(sp)
		if err != nil {
			return fail(err)
		}
		out.Verdict = res.Idempotent
	default:
		return fail(fmt.Errorf("unknown check %q", t.Check))
	}
	out.MS = float64(time.Since(start)) / 1e6
	out.CPUMS = float64(processCPU()-cpuStart) / 1e6
	tr.finish(root)
	out.Spans = tr.snapshot()
	return out
}

// addStats records a determinacy check's counters.
func addStats(c map[string]float64, s core.Stats) {
	c["resources"] += float64(s.Resources)
	c["eliminated"] += float64(s.Eliminated)
	c["paths"] += float64(s.Paths)
	c["total_paths"] += float64(s.TotalPaths)
	c["sequences"] += float64(s.Sequences)
	c["sem_queries"] += float64(s.SemQueries)
	c["sem_cache_hits"] += float64(s.SemCacheHits)
	c["solver_reuses"] += float64(s.SolverReuses)
	c["encode_memo_hits"] += float64(s.EncodeMemoHits)
	c["det_checks"]++
	if s.Eliminated == 0 && s.PrunedPaths == 0 {
		c["exact_fallbacks"]++
	}
}
