package main

// The reference clock. On a shared host the speed of a CPU second drifts
// by a quarter or more over minutes (other tenants' load on the same
// cores and caches), and CPU time moves with it. The benchmark therefore
// times a fixed reference computation in fresh worker processes through
// every run and reports check times at reference speed: each measured
// time is scaled by refNominalMS / (the run's median reference time).
// The reference is the benchmark's own code, independent of the program,
// so a change to the program moves only the scaled times.

import (
	"fmt"
	"sort"
	"strconv"
	"time"
)

const (
	// refNominalMS is the reference's CPU time at reference speed: the
	// scale of every normalized time (about its time on a 2-CPU Xeon VM).
	refNominalMS = 20.0
	// refReps is how many times one worker computes the reference; the
	// worker reports the median.
	refReps = 3
	// refEvery is the least time between two reference workers in a run.
	refEvery = time.Second
)

// refSink keeps the reference computation from being optimized away.
var refSink int

// reference is a fixed computation shaped like the pipeline's work:
// string keys built and hashed into a map, slices grown, a sort, and the
// garbage collection all of that causes.
func reference() {
	const n = 20000
	m := make(map[string][]int)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := "/srv/app" + strconv.Itoa(i%97) + "/dir" + strconv.Itoa(i)
		m[k] = append(m[k], i, i*7)
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := 0
	for _, k := range keys {
		s += len(m[k]) + len(k)
	}
	refSink += s
}

// referenceOutcome times the reference in a worker: the median CPU and
// wall time of refReps computations.
func referenceOutcome() outcome {
	var cpus, walls []float64
	for i := 0; i < refReps; i++ {
		t0, c0 := time.Now(), processCPU()
		reference()
		cpus = append(cpus, float64(processCPU()-c0)/1e6)
		walls = append(walls, float64(time.Since(t0))/1e6)
	}
	return outcome{Verdict: true, MS: median(walls), CPUMS: median(cpus)}
}

// refClock samples the reference through one run.
type refClock struct {
	w    *worker
	last time.Time
	cpus []float64 // ms, one per reference worker
}

// sample runs a reference worker if none ran in the last refEvery.
func (c *refClock) sample() error {
	if time.Since(c.last) < refEvery {
		return nil
	}
	c.last = time.Now()
	s := c.w.run(task{Input: "reference", Mode: modeReference})
	if s.err != nil {
		return fmt.Errorf("reference worker: %w", s.err)
	}
	c.cpus = append(c.cpus, s.out.CPUMS)
	return nil
}

// scale is the factor that brings this run's times to reference speed.
func (c *refClock) scale() float64 {
	return ratio(refNominalMS, median(c.cpus))
}

// row describes the run's reference samples.
func (c *refClock) row() string {
	return fmt.Sprintf("reference cpu_median_ms %.3f samples %d scale %.4f", median(c.cpus), len(c.cpus), c.scale())
}
