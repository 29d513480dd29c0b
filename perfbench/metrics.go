package main

import "time"

// layerMetrics derives the per-layer metrics from a traced run's spans and
// the counters read at the same boundaries. Times are summed self times
// over the run (inclusive times for the whole-pipeline calls); a layer the
// workload does not reach reads 0.
func layerMetrics(spans []span, c map[string]float64) map[string]float64 {
	self := selfTimes(spans)
	total := totalTimes(spans)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	m := map[string]float64{
		"puppet.parse_ms":       ms(self["puppet.Parse"]),
		"puppet.eval_ms":        ms(self["puppet.Evaluate"]),
		"puppet.resources":      c["puppet.resources"],
		"pkgdb.calls":           c["pkgdb.calls"],
		"pkgdb.ms":              ms(total["pkgdb.Lookup"] + total["pkgdb.Closure"] + total["pkgdb.ReverseDependents"]),
		"resources.compile_ms":  ms(self["resources.Compile"]),
		"resources.model_nodes": c["resources.model_nodes"],
		"fs.intern_ms":          ms(self["fs.InternWithStats"]),
		"fs.intern_hit_ratio":   ratio(c["fs.intern_hits"], c["fs.intern_hits"]+c["fs.intern_misses"]),
		"commute.analyze_ms":    ms(self["commute.Analyze"]),
		"commute.pairs":         c["commute.pairs"],
		"commute.commute_ms":    ms(self["commute.Commute"]),
		"commute.commute_ratio": ratio(c["commute.commuting"], c["commute.pairs"]),
		"prune.definitive_ms":   ms(self["prune.DefinitiveWrites"]),

		"core.load_ms":               ms(total["core.Load"]),
		"core.determinism_ms":        ms(total["core.CheckDeterminism"]),
		"core.idempotence_ms":        ms(total["core.CheckIdempotence"]),
		"core.eliminated_ratio":      ratio(c["eliminated"], c["resources"]),
		"core.paths_ratio":           ratio(c["paths"], c["total_paths"]),
		"core.sequences":             c["sequences"],
		"core.exact_fallbacks":       c["exact_fallbacks"],
		"core.sem_queries":           c["sem_queries"],
		"core.sem_cache_hit_ratio":   ratio(c["sem_cache_hits"], c["sem_cache_hits"]+c["sem_queries"]),
		"core.solver_reuses":         c["solver_reuses"],
		"core.encode_memo_hits":      c["encode_memo_hits"],
		"sym.encode_ms":              ms(self["sym.Encoder.Apply"]),
		"sym.query_ms":               ms(total["sym.Commutes"]),
		"smt.terms":                  c["smt.terms"],
		"sat.solve_ms":               ms(self["smt.Solver.Check"]),
		"sat.conflicts":              c["sat.conflicts"],
		"sat.propagations":           c["sat.propagations"],
		"sat.decisions":              c["sat.decisions"],
		"sat.propagations_per_s":     ratio(c["sat.propagations"], self["smt.Solver.Check"].Seconds()),
		"qcache.hit_ratio":           ratio(c["qcache.hits"], c["qcache.hits"]+c["qcache.misses"]),
		"qcache.coalesced":           c["qcache.coalesced"],
		"qcache.evictions":           c["qcache.evictions"],
		"service.submit_ms":          ms(total["service.submit"]),
		"service.queue_wait_ms":      ms(total["service.queue"]),
		"service.run_ms":             ms(total["service.run"]),
		"service.dedup_ratio":        ratio(c["service.deduped"], c["service.submitted"]),
		"service.rejected":           c["service.rejected"],
		"go.alloc_bytes_per_verdict": ratio(c["alloc_bytes"], c["verdicts"]),
		"go.gc_cpu_frac":             ratio(c["gc_weighted"], c["gc_ms"]),
		"load.send_lag_p99_ms":       c["send_lag_p99_ms"],
		"trace.overhead_ratio":       c["overhead_ratio"],
	}
	return m
}
