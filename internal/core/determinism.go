package core

import (
	"sync"
	"time"

	"repro/internal/commute"
	"repro/internal/diff"
	"repro/internal/fs"
	"repro/internal/graph"
	"repro/internal/prune"
	"repro/internal/qcache"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/sym"
)

// Counterexample witnesses non-determinism: two valid orders of the same
// resources that produce different outcomes from the same initial
// filesystem.
type Counterexample struct {
	Input          fs.State
	Order1, Order2 []string
	Ok1, Ok2       bool
	Out1, Out2     fs.State
}

// Stats summarizes the work a determinacy check performed.
type Stats struct {
	Resources   int           // resources in the compiled graph
	Eliminated  int           // resources removed by elimination
	PrunedPaths int           // paths whose writes were pruned
	TotalPaths  int           // modeled paths before analyses (fig. 11a "No")
	Paths       int           // modeled paths after analyses (fig. 11a "Yes")
	Sequences   int           // linearizations encoded after POR
	Duration    time.Duration // wall-clock time of the check

	// Workers is the worker-pool size semantic-commutativity queries ran
	// under (Options.Parallelism after defaulting).
	Workers int
	// SemQueries counts the solver queries this check executed — the
	// shared-cache misses among its semantic-commutativity decisions.
	SemQueries int
	// SemCacheHits counts decisions served by the process-wide
	// content-addressed cache (warmed by earlier checks of manifests with
	// overlapping resources).
	SemCacheHits int
	// SolverReuses counts solver queries answered by a pooled incremental
	// solver that had already served earlier queries (0 with
	// Options.FreshSolvers or without SemanticCommute).
	SolverReuses int
	// LearntRetained is the number of learnt clauses alive across the
	// check's solver pool when the check finished — knowledge later
	// queries inherit instead of rediscovering.
	LearntRetained int
	// PreprocessRemoved counts clauses deleted by the pooled solvers'
	// root-level preprocessing passes (satisfied-clause removal and
	// subsumption), cumulative over the pool.
	PreprocessRemoved int64

	// InternHits counts hash-consing table hits while compiling and
	// re-compiling this system's resource models — structurally repeated
	// subtrees shared instead of reallocated (0 with
	// Options.DisableInterning).
	InternHits int64
	// EncodeMemoHits counts symbolic applications the check's pooled
	// sessions answered from their subtree memos instead of re-encoding.
	// Read as a before/after delta over parked sessions, so, like
	// LearntRetained, it is approximate when workers hold sessions across
	// the snapshot.
	EncodeMemoHits int64
	// DiskCacheHits counts semantic-commutativity decisions answered by
	// the on-disk verdict tier (0 without Options.CacheDir).
	DiskCacheHits int
	// RemoteCacheHits counts semantic-commutativity decisions answered by
	// the cluster verdict ring (0 without a remote tier attached — i.e.
	// outside a rehearsald cluster).
	RemoteCacheHits int
	// WorkerPanics counts panics recovered inside semantic-commutativity
	// workers. The first panic aborts the check with a *PanicError, so a
	// successfully returned result always reports 0; the counter exists
	// for the error path's diagnostics (see CheckDeterminism's error
	// contract) and for tests.
	WorkerPanics int

	// Core solver search counters, cumulative over every SAT query the
	// check ran (semantic-commutativity queries across all workers and
	// portfolio legs, plus the final determinacy disjunction).
	SolverDecisions    int64
	SolverPropagations int64
	SolverConflicts    int64
	SolverRestarts     int64

	// Portfolio-racing counters (all zero unless Options.Portfolio.K >= 2).

	// PortfolioEscalations counts default-config attempts that exhausted
	// the escalation budget; PortfolioRaces counts the k-way races those
	// escalations triggered.
	PortfolioEscalations int
	PortfolioRaces       int
	// WinnerByConfig maps a portfolio config name to the races it won;
	// only configs with at least one win appear (nil when no race ran).
	WinnerByConfig map[string]int

	// Differential-verification counters, populated only by the VerifyDiff
	// path (all zero on a full check).

	// DiffChanged counts head resources that cannot inherit base verdicts:
	// compiled models that changed plus resources added since base.
	DiffChanged int
	// DiffUnchanged counts head resources whose compiled-model digests
	// match base.
	DiffUnchanged int
	// PairsReused counts distinct semantic-commutativity pairs between two
	// unchanged resources whose verdicts were inherited from the warm
	// verdict tiers (memory or disk) with zero solver work.
	PairsReused int
	// PairsReverified counts distinct semantic-commutativity pairs that
	// executed a solver query in this check — pairs touching a changed or
	// added resource, plus any inherit misses.
	PairsReverified int
	// InheritMisses counts the subset of PairsReverified whose members
	// were both unchanged: the base verdict was not in the warm tiers (a
	// cold cache, or context-dependent pruning shifted the pair's content
	// address), so soundness forced a re-solve.
	InheritMisses int
}

// SemCacheHitRate returns the fraction of semantic-commutativity
// decisions answered without running the solver; 0 when no semantic
// decisions were made.
func (s Stats) SemCacheHitRate() float64 {
	total := s.SemQueries + s.SemCacheHits
	if total == 0 {
		return 0
	}
	return float64(s.SemCacheHits) / float64(total)
}

// DeterminismResult is the outcome of CheckDeterminism.
type DeterminismResult struct {
	Deterministic  bool
	Counterexample *Counterexample // set when non-deterministic
	Stats          Stats
}

// workNode is a mutable copy of a graph node used during one check.
type workNode struct {
	name string
	expr fs.Expr
	orig fs.Expr
	sum  *commute.Summary

	// unchanged marks the resource's compiled model as digest-identical to
	// the base manifest's (differential checks only; always false on a
	// full check). Pair classification reads it: a pair of two unchanged
	// resources is expected to inherit its verdict from the warm tiers.
	unchanged bool

	digOnce sync.Once
	dig     fs.Digest
}

// digest returns the canonical content hash of the node's current model,
// computed once per workNode (pruning replaces the workNode, so the memo
// never goes stale). Safe for concurrent use by pool workers.
func (w *workNode) digest() fs.Digest {
	w.digOnce.Do(func() { w.dig = fs.DigestExpr(w.expr) })
	return w.dig
}

// CheckDeterminism decides whether the manifest's resource graph is
// deterministic (definition 1): every input filesystem leads to exactly
// one outcome regardless of the order resources are applied in. The check
// is sound and complete; see DESIGN.md for the replay-validated fallback
// that keeps it exact when elimination or pruning are enabled.
func (s *System) CheckDeterminism() (*DeterminismResult, error) {
	return s.checkDeterminism(s.opts, nil)
}

// VerifyDiff runs the differential determinacy check: head is verified in
// full soundness, but the pairwise commutativity matrix is partitioned by
// the resource-level delta against base — pairs of digest-unchanged
// resources inherit the base run's verdicts from the warm content-
// addressed tiers (memory cache or the CacheDir disk tier) with zero
// solver work, and only pairs touching a changed or added resource enter
// the worker pool. The verdict is identical to head.CheckDeterminism()
// at any delta: inheritance is content-addressed (identical models →
// identical cache keys), and an unchanged pair whose key misses the warm
// tiers — a cold cache, or pruning shifted under it — is simply
// re-solved and counted as an inherit miss. Both systems should be loaded
// under the same platform/provider options; head's options drive the
// check.
func VerifyDiff(base, head *System) (*DeterminismResult, error) {
	return head.CheckDeterminismDiff(base)
}

// CheckDeterminismDiff is VerifyDiff as a method on the head system.
func (s *System) CheckDeterminismDiff(base *System) (*DeterminismResult, error) {
	d := diff.Compute(base.ResourceDigests(), s.ResourceDigests())
	return s.checkDeterminism(s.opts, d)
}

// checkDeterminism runs one determinacy check. delta, when non-nil, is
// the resource-level difference against a base manifest: it drives the
// reused/re-verified pair accounting and marks unchanged resources, but
// never weakens the analysis — every pair is still decided, just
// preferentially from the warm verdict tiers.
func (s *System) checkDeterminism(opts Options, delta *diff.Delta) (*DeterminismResult, error) {
	start := time.Now()
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}

	var unchanged map[string]bool
	if delta != nil {
		unchanged = delta.UnchangedSet()
	}

	wg := s.workGraph(unchanged)
	cc := newCommuteChecker(opts)
	cc.diffAware = delta != nil
	defer cc.cancel() // release the derived context on every exit path
	stats := Stats{Resources: wg.Len(), TotalPaths: s.TotalPaths(), Workers: cc.workers, InternHits: s.internHits}
	if delta != nil {
		stats.DiffChanged = len(delta.Changed) + len(delta.Added)
		stats.DiffUnchanged = len(delta.Unchanged)
	}

	// Second verdict tier: persist this check's semantic-commutativity
	// verdicts and warm-start from verdicts earlier processes left behind.
	if opts.CacheDir != "" {
		disk, err := qcache.OpenDiskShared(opts.CacheDir)
		if err != nil {
			return nil, err
		}
		cc.cache.AttachDisk(disk)
	}

	// Incremental solving: route this check's semantic queries through a
	// pooled solver per worker, sharing one vocabulary built from the full
	// pre-analysis expression set. Elimination and pruning only ever
	// shrink expressions and their domains, so this vocabulary spans every
	// later query; a query over a superset domain decides the same
	// equivalence (bounded-domain lemma), keeping verdicts identical to
	// the fresh-solver path.
	if opts.SemanticCommute && !opts.FreshSolvers {
		poolDom := make(fs.PathSet)
		poolExprs := make([]fs.Expr, 0, wg.Len())
		for _, n := range wg.Nodes() {
			poolExprs = append(poolExprs, wg.Label(n).expr)
			poolDom.AddAll(fs.Dom(wg.Label(n).expr))
		}
		cc.usePool(sym.NewVocab(poolDom, poolExprs...))
	}
	// Pools outlive checks (re-checks reuse warm sessions), so the memo-hit
	// stat below is the delta this check contributed.
	var applyHitsBase int64
	if cc.pool != nil {
		applyHitsBase = cc.pool.applyHits()
	}

	// Elimination and pruning look up interacting resources in one
	// footprint index over the unpruned summaries.
	var fp *commute.Index
	if opts.Elimination || opts.Pruning {
		fp = footprintIndex(wg)
	}

	// Step 1 (section 4.4): eliminate resources that commute with every
	// resource that may run after them. Removal order matters for replay:
	// the first-removed resource commutes with everything else and can be
	// placed last in any linearization.
	var eliminated []*workNode
	if opts.Elimination {
		eliminated = eliminate(wg, cc, fp)
		stats.Eliminated = len(eliminated)
		if err := cc.err(); err != nil {
			return nil, err
		}
	}

	// Step 2 (section 4.4): prune definitive writes to paths that only a
	// single resource touches.
	if opts.Pruning {
		pruned, reinternHits := pruneGraph(wg, fp, !opts.DisableInterning)
		stats.PrunedPaths = pruned
		stats.InternHits += reinternHits
	}

	// Step 3 (sections 4.1–4.3): encode all POR-reduced linearizations
	// symbolically and ask the solver for an input that distinguishes two
	// of them.
	nodes := wg.Nodes()
	exprs := make([]fs.Expr, 0, len(nodes))
	dom := make(fs.PathSet)
	for _, n := range nodes {
		exprs = append(exprs, wg.Label(n).expr)
		dom.AddAll(fs.Dom(wg.Label(n).expr))
	}
	vocab := sym.NewVocab(dom, exprs...)
	stats.Paths = len(vocab.Paths)
	en := sym.NewEncoder(vocab)
	if !deadline.IsZero() {
		en.S.SetDeadline(deadline)
	}
	input := en.FreshInputState("in")
	if opts.WellFormedInit {
		en.S.Assert(en.WellFormed(input))
	}

	outs, orders, err := enumerate(wg, en, input, opts, deadline, cc)
	if err != nil {
		return nil, err
	}
	stats.Sequences = len(outs)
	stats.WorkerPanics = int(cc.panics.Load())
	stats.SemQueries = int(cc.queries.Load())
	stats.SemCacheHits = int(cc.hits.Load())
	stats.SolverReuses = int(cc.reuses.Load())
	stats.DiskCacheHits = int(cc.diskHits.Load())
	stats.RemoteCacheHits = int(cc.remoteHits.Load())
	if delta != nil {
		stats.PairsReused = int(cc.reusedPairs.Load())
		stats.PairsReverified = int(cc.reverifiedPairs.Load())
		stats.InheritMisses = int(cc.inheritMisses.Load())
	}
	if cc.pool != nil {
		stats.LearntRetained, stats.PreprocessRemoved = cc.pool.snapshot()
		if d := cc.pool.applyHits() - applyHitsBase; d > 0 {
			stats.EncodeMemoHits = d
		}
	}
	stats.PortfolioEscalations = int(cc.escalations.Load())
	stats.PortfolioRaces = int(cc.races.Load())
	if len(cc.portfolio) > 1 {
		byConfig := make(map[string]int)
		for i := range cc.wins {
			if n := cc.wins[i].Load(); n > 0 {
				byConfig[cc.portfolio[i].Name] = int(n)
			}
		}
		if len(byConfig) > 0 {
			stats.WinnerByConfig = byConfig
		}
	}
	// Search counters span the worker queries (cc.satm) plus the final
	// determinacy disjunction on the big encoder below; filled at return.
	fillSearch := func() {
		co := cc.satm.Counters().Add(en.S.Counters())
		stats.SolverDecisions = co.Decisions
		stats.SolverPropagations = co.Propagations
		stats.SolverConflicts = co.Conflicts
		stats.SolverRestarts = co.Restarts
	}

	if len(outs) <= 1 {
		// A single linearization after POR is deterministic by
		// construction: every order was proven equivalent to it.
		fillSearch()
		stats.Duration = time.Since(start)
		return &DeterminismResult{Deterministic: true, Stats: stats}, nil
	}

	// All-pairwise equality is equivalent to all-equal-to-first under a
	// shared input (equality of concrete outcomes is transitive), so a
	// linear number of disequalities suffices.
	diffTerms := make([]smt.T, len(outs))
	ts := make([]smt.T, 0, len(outs)-1)
	for i := 1; i < len(outs); i++ {
		diffTerms[i] = en.StatesDiffer(outs[0], outs[i])
		ts = append(ts, diffTerms[i])
	}
	en.S.Assert(en.S.Or(ts...))

	switch en.S.Check() {
	case sat.Unsat:
		fillSearch()
		stats.Duration = time.Since(start)
		return &DeterminismResult{Deterministic: true, Stats: stats}, nil
	case sat.Unknown:
		return nil, ErrTimeout
	}
	fillSearch()

	// A model: decode the input and identify a distinguishing pair.
	in, err := en.ModelState(input)
	if err != nil {
		return nil, err
	}
	second := 1
	for i := 1; i < len(outs); i++ {
		differs, err := en.S.BoolValue(diffTerms[i])
		if err != nil {
			return nil, err
		}
		if differs {
			second = i
			break
		}
	}

	cex := s.replay(wg, eliminated, in, orders[0], orders[second], opts.WellFormedInit)
	if cex != nil {
		stats.Duration = time.Since(start)
		return &DeterminismResult{Deterministic: false, Counterexample: cex, Stats: stats}, nil
	}

	// The distinguishing input did not replay on the full graph: the
	// abstraction introduced by elimination/pruning was too coarse for
	// this manifest. Fall back to the exact configuration (POR only).
	exact := opts
	exact.Elimination = false
	exact.Pruning = false
	if opts.Elimination || opts.Pruning {
		res, err := s.checkDeterminism(exact, delta)
		if err != nil {
			return nil, err
		}
		res.Stats.TotalPaths = stats.TotalPaths
		// The reported cost covers both passes, not just the exact one.
		res.Stats.Duration = time.Since(start)
		return res, nil
	}
	// POR and the base encoding are exact; an unreplayable model here is a
	// bug in the encoder.
	panic("core: determinism model failed to replay under the exact configuration")
}

// workGraph returns a working copy of the resource graph for one check
// (analyses must not mutate the System), marking the resources named in
// unchanged.
func (s *System) workGraph(unchanged map[string]bool) *graph.Graph[*workNode] {
	wg := graph.New[*workNode]()
	remap := make(map[graph.Node]graph.Node)
	for _, n := range s.g.Nodes() {
		l := s.g.Label(n)
		name := l.res.String()
		remap[n] = wg.Add(&workNode{name: name, expr: l.expr, orig: l.orig, sum: l.sum, unchanged: unchanged[name]})
	}
	for _, n := range s.g.Nodes() {
		for _, v := range s.g.Succs(n) {
			_ = wg.AddEdge(remap[n], remap[v])
		}
	}
	return wg
}

// replay applies the two orders (plus eliminated resources, in reverse
// elimination order) to the decoded input using the unpruned resource
// models and the concrete evaluator. It returns nil when the outcomes do
// not actually differ.
func (s *System) replay(wg *graph.Graph[*workNode], eliminated []*workNode, in fs.State, order1, order2 []graph.Node, keepWellFormed bool) *Counterexample {
	build := func(order []graph.Node) ([]string, fs.Expr) {
		var names []string
		var exprs []fs.Expr
		for _, n := range order {
			names = append(names, wg.Label(n).name)
			exprs = append(exprs, wg.Label(n).orig)
		}
		for i := len(eliminated) - 1; i >= 0; i-- {
			names = append(names, eliminated[i].name)
			exprs = append(exprs, eliminated[i].orig)
		}
		return names, fs.SeqAll(exprs...)
	}
	names1, e1 := build(order1)
	names2, e2 := build(order2)
	if !diverges(e1, e2, in, fs.NewState(), fs.NewState()) {
		return nil
	}
	in = minimizeInput(e1, e2, in, keepWellFormed)
	out1, ok1 := fs.Eval(e1, in)
	out2, ok2 := fs.Eval(e2, in)
	return &Counterexample{
		Input:  in,
		Order1: names1, Order2: names2,
		Ok1: ok1, Ok2: ok2,
		Out1: out1, Out2: out2,
	}
}

// diverges reports whether the two sequenced expressions produce different
// outcomes from in. It evaluates into the scratch states s1 and s2,
// overwriting them.
func diverges(e1, e2 fs.Expr, in, s1, s2 fs.State) bool {
	out1, ok1 := fs.EvalInto(e1, in, s1)
	out2, ok2 := fs.EvalInto(e2, in, s2)
	if ok1 != ok2 {
		return true
	}
	return ok1 && !out1.Equal(out2)
}

// minimizeInput greedily removes entries from the witness filesystem while
// the two orders still diverge, so reported counterexamples mention only
// the state that matters. Removing one entry can unblock another (e.g. a
// file inside a directory), so the pass repeats until a fixpoint. Every
// trial evaluates into the same two scratch states, so a trial allocates
// nothing once they have grown to the programs' output size.
func minimizeInput(e1, e2 fs.Expr, in fs.State, keepWellFormed bool) fs.State {
	min := in.Clone()
	s1, s2 := fs.NewState(), fs.NewState()
	for changed := true; changed; {
		changed = false
		for _, p := range min.Paths() {
			saved := min[p]
			delete(min, p)
			if diverges(e1, e2, min, s1, s2) && (!keepWellFormed || min.IsWellFormed()) {
				changed = true
				continue
			}
			min[p] = saved
		}
	}
	return min
}

// footprintIndex indexes the commute summaries of wg's nodes by node id.
func footprintIndex(wg *graph.Graph[*workNode]) *commute.Index {
	fp := commute.NewIndex()
	for _, n := range wg.Nodes() {
		fp.Add(int(n), wg.Label(n).sum)
	}
	return fp
}

// eliminate repeatedly removes fringe resources (no dependents) that
// commute with every incomparable resource, returning them in removal
// order. fp indexes every node's summary; only the live incomparable
// nodes it reports as syntactic conflicts are asked, in ascending node
// order, since cc.commutes answers true without any work for every other
// pair. Each round first batches the candidate pairs it is about to ask
// and fans the semantic-commutativity queries across the worker pool;
// the removal pass itself stays sequential and identical to the
// single-threaded analysis, so the removal order — which replay depends
// on — is the same at any parallelism.
func eliminate(wg *graph.Graph[*workNode], cc *commuteChecker, fp *commute.Index) []*workNode {
	// candidates returns v's live, incomparable syntactic conflicts in
	// ascending node order. Descendants need no filter: v is on the
	// fringe.
	candidates := func(v graph.Node) []graph.Node {
		var out []graph.Node
		var anc map[graph.Node]struct{}
		for _, id := range fp.Conflicts(wg.Label(v).sum) {
			u := graph.Node(id)
			if u == v || !wg.Has(u) {
				continue
			}
			if anc == nil {
				anc = wg.Ancestors(v)
			}
			if _, isAnc := anc[u]; !isAnc {
				out = append(out, u)
			}
		}
		return out
	}
	var removed []*workNode
	for {
		// Batch this round's candidate queries: every fringe node against
		// its candidates, as of the round-start graph. The sequential pass
		// below may skip some (early break on the first conflict) or add
		// some (nodes that become fringe mid-round); prefetching a
		// near-exact superset is only a cache warm-up and cannot change
		// any verdict.
		if cc.semantic && cc.workers > 1 {
			var pairs []pair
			for _, v := range wg.Nodes() {
				if wg.OutDegree(v) != 0 {
					continue
				}
				for _, u := range candidates(v) {
					pairs = append(pairs, pair{wg.Label(v), wg.Label(u)})
				}
			}
			cc.prefetch(pairs)
		}

		changed := false
		for _, v := range wg.Nodes() {
			if wg.OutDegree(v) != 0 {
				continue
			}
			ok := true
			for _, u := range candidates(v) {
				if !cc.commutes(wg.Label(v), wg.Label(u)) {
					ok = false
					break
				}
			}
			if ok {
				removed = append(removed, wg.Label(v))
				wg.Remove(v)
				changed = true
			}
		}
		if !changed {
			return removed
		}
	}
}

// pruneGraph prunes, for every resource, the definitive writes to paths no
// other resource touches. fp indexes the summaries the nodes had before
// pruning (nodes elimination removed may remain in it). Returns the number
// of pruned paths and, when intern is set, the hash-consing hits from
// re-canonicalizing the rebuilt models (pruning shrinks trees, so most
// subtrees are already canonical).
func pruneGraph(wg *graph.Graph[*workNode], fp *commute.Index, intern bool) (int, int64) {
	nodes := wg.Nodes()
	// Count how many resources touch each path.
	touchers := make(map[fs.Path]int)
	for _, n := range nodes {
		for p := range wg.Label(n).sum.Paths() {
			touchers[p]++
		}
	}
	pruned := 0
	var internHits int64
	for _, n := range nodes {
		wn := wg.Label(n)
		defs := prune.DefinitiveWrites(wn.expr)
		expr := wn.expr
		changed := false
		for p, v := range defs {
			if !v.Definitive() {
				continue
			}
			if touchers[p] != 1 {
				continue
			}
			// No other resource may observe p's presence through its
			// parent's child-set. Pruning only ever drops observations, so
			// the indexed observers are a superset of the current ones;
			// each is confirmed against its current (possibly pruned) model.
			shared := false
			for _, id := range fp.Observers(p.Parent()) {
				m := graph.Node(id)
				if m != n && wg.Has(m) && wg.Label(m).sum.ObservesChildrenOf(p.Parent()) {
					shared = true
					break
				}
			}
			if shared {
				continue
			}
			next, ok := prune.Prune(p, expr)
			if !ok {
				continue
			}
			expr = next
			pruned++
			changed = true
		}
		if changed {
			if intern {
				h, st := fs.InternWithStats(expr)
				expr = h
				internHits += st.Hits
			}
			wg.SetLabel(n, &workNode{name: wn.name, expr: expr, orig: wn.orig, sum: commute.Analyze(expr), unchanged: wn.unchanged})
		}
	}
	return pruned, internHits
}

// commuteMatrix decides pairwise commutativity of nodes for partial-order
// reduction: entry [i][j] reports whether nodes i and j commute, and the
// diagonal is false. Only the pairs a footprint index over the nodes'
// current summaries reports as syntactic conflicts reach cc.commutes; every
// other off-diagonal entry commutes syntactically. Those pairs are all
// needed, so they fan across the worker pool directly (no early exits to
// preserve).
func commuteMatrix(wg *graph.Graph[*workNode], nodes []graph.Node, cc *commuteChecker) ([][]bool, error) {
	fp := commute.NewIndex()
	for i, n := range nodes {
		fp.Add(i, wg.Label(n).sum)
	}
	canCommute := make([][]bool, len(nodes))
	var pairs [][2]int
	for i, n := range nodes {
		row := make([]bool, len(nodes))
		for j := range row {
			row[j] = j != i
		}
		canCommute[i] = row
		for _, j := range fp.Conflicts(wg.Label(n).sum) {
			if j > i {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	runParallel(cc.ctx, cc.workers, len(pairs), func(k int) {
		i, j := pairs[k][0], pairs[k][1]
		v := cc.commutes(wg.Label(nodes[i]), wg.Label(nodes[j]))
		canCommute[i][j] = v
		canCommute[j][i] = v
	})
	// A worker panicked or the caller canceled: the matrix may be partial,
	// so abort instead of enumerating over it.
	return canCommute, cc.err()
}

// enumerate explores the POR-reduced linearizations of wg, applying each
// resource's model symbolically (ΦG of figures 7 and 9a). It returns the
// symbolic output state and resource order of every explored
// linearization.
func enumerate(wg *graph.Graph[*workNode], en *sym.Encoder, input *sym.State, opts Options, deadline time.Time, cc *commuteChecker) ([]*sym.State, [][]graph.Node, error) {
	nodes := wg.Nodes()
	idx := make(map[graph.Node]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	// Pairwise commutativity matrix (read only under Commutativity: without
	// it neither reduction runs and no sleep set fills), each node's
	// conflicts (the nodes it does not commute with, the only ones that can
	// stop it being a pivot) and descendant sets.
	var canCommute [][]bool
	var conflicts [][]int
	if opts.Commutativity {
		var err error
		if canCommute, err = commuteMatrix(wg, nodes, cc); err != nil {
			return nil, nil, err
		}
		conflicts = make([][]int, len(nodes))
		for i, row := range canCommute {
			for j, ok := range row {
				if !ok && j != i {
					conflicts[i] = append(conflicts[i], j)
				}
			}
		}
	}
	desc := make([]map[graph.Node]struct{}, len(nodes))
	for i, n := range nodes {
		desc[i] = wg.Descendants(n)
	}

	indeg := make(map[graph.Node]int, len(nodes))
	for _, n := range nodes {
		indeg[n] = wg.InDegree(n)
	}
	remaining := make(map[graph.Node]bool, len(nodes))
	for _, n := range nodes {
		remaining[n] = true
	}

	var outs []*sym.State
	var orders [][]graph.Node
	order := make([]graph.Node, 0, len(nodes))

	// The exploration combines two sound reductions:
	//
	//  1. The pivot rule of figure 9a: a ready resource that commutes with
	//     every remaining non-descendant can be scheduled first in every
	//     linearization, so only that branch is explored.
	//  2. Sleep sets: after exploring a branch that schedules t first, t
	//     is put to sleep for the sibling branches and stays asleep as
	//     long as only commuting resources execute — any linearization in
	//     which t could be swapped back to the front was already covered
	//     by the first branch. This collapses the n! interleavings of a
	//     mostly-commuting resource set to one representative per
	//     Mazurkiewicz trace even when no global pivot exists.
	//
	// Both use lemma 4's semantic commutativity, so every pruned
	// linearization is equivalent to an explored one.
	var rec func(st *sym.State, sleep map[graph.Node]bool) error
	rec = func(st *sym.State, sleep map[graph.Node]bool) error {
		if err := cc.err(); err != nil {
			return err
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return ErrTimeout
		}
		if len(order) == len(nodes) {
			if len(outs) >= opts.MaxSequences {
				return ErrTimeout
			}
			outs = append(outs, st)
			orders = append(orders, append([]graph.Node(nil), order...))
			return nil
		}
		var ready []graph.Node
		for _, n := range nodes {
			if remaining[n] && indeg[n] == 0 && !sleep[n] {
				ready = append(ready, n)
			}
		}
		if len(ready) == 0 {
			// Everything ready is asleep: all linearizations below are
			// permutations of branches explored earlier.
			return nil
		}
		if opts.Commutativity {
			for _, e := range ready {
				pivot := true
				for _, j := range conflicts[idx[e]] {
					m := nodes[j]
					if !remaining[m] {
						continue
					}
					if _, isDesc := desc[idx[e]][m]; !isDesc {
						pivot = false
						break
					}
				}
				if pivot {
					ready = []graph.Node{e}
					break
				}
			}
		}
		accumulated := sleep
		for branch, n := range ready {
			childSleep := make(map[graph.Node]bool)
			for s := range accumulated {
				if canCommute[idx[s]][idx[n]] {
					childSleep[s] = true
				}
			}
			remaining[n] = false
			for _, m := range wg.Succs(n) {
				indeg[m]--
			}
			order = append(order, n)
			err := rec(en.Apply(wg.Label(n).expr, st), childSleep)
			order = order[:len(order)-1]
			remaining[n] = true
			for _, m := range wg.Succs(n) {
				indeg[m]++
			}
			if err != nil {
				return err
			}
			if opts.Commutativity && !opts.DisableSleepSets && branch < len(ready)-1 {
				if accumulated == nil || len(accumulated) == len(sleep) {
					// Copy-on-write: extend the sleep set for siblings.
					next := make(map[graph.Node]bool, len(sleep)+len(ready))
					for s := range sleep {
						next[s] = true
					}
					accumulated = next
				}
				accumulated[n] = true
			}
		}
		return nil
	}
	if err := rec(input, nil); err != nil {
		return nil, nil, err
	}
	return outs, orders, nil
}
