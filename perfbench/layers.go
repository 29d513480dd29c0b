package main

// The layer replay: each layer's public function called on the same input,
// in pipeline order, with a span around every call and counters read at
// the same boundaries. It runs in a fresh worker process so every memo the
// layers keep starts cold, as it does for a CLI check.

import (
	"time"

	"repro/internal/commute"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/pkgdb"
	"repro/internal/prune"
	"repro/internal/puppet"
	"repro/internal/resources"
	"repro/internal/sym"
)

// maxQueryPairs bounds the sym.Commutes replay per input: the first pairs,
// in resource order, that the syntactic analysis cannot prove commuting.
const maxQueryPairs = 24

// countingProvider wraps a pkgdb.Provider, counting and timing its calls.
type countingProvider struct {
	p      pkgdb.Provider
	tr     *tracer
	parent *int // span the calls belong to
	req    string
	calls  int
}

func (c *countingProvider) call(name string, f func() error) error {
	c.calls++
	sp := c.tr.start(*c.parent, "pkgdb."+name, c.req)
	err := f()
	c.tr.finish(sp)
	return err
}

func (c *countingProvider) Lookup(platform, name string) (p *pkgdb.Package, err error) {
	err = c.call("Lookup", func() error { p, err = c.p.Lookup(platform, name); return err })
	return p, err
}

func (c *countingProvider) Closure(platform, name string) (ps []*pkgdb.Package, err error) {
	err = c.call("Closure", func() error { ps, err = c.p.Closure(platform, name); return err })
	return ps, err
}

func (c *countingProvider) ReverseDependents(platform, name string) (ps []*pkgdb.Package, err error) {
	err = c.call("ReverseDependents", func() error { ps, err = c.p.ReverseDependents(platform, name); return err })
	return ps, err
}

// replay drives every layer on the task's input and returns the spans and
// counters; the verdict field is unused.
func replay(t task) outcome {
	tr := newTracer()
	opts := t.options()
	out := outcome{Counters: map[string]float64{}}
	c := out.Counters
	req := t.Input
	start := time.Now()
	root := tr.start(0, "replay", req)
	fail := func(err error) outcome {
		tr.finish(root)
		out.Err = err.Error()
		out.Spans = tr.snapshot()
		return out
	}
	timed := func(name string, f func()) {
		sp := tr.start(root, name, req)
		f()
		tr.finish(sp)
	}

	// puppet: parse and evaluate.
	var stmts []puppet.Stmt
	var cat *puppet.Catalog
	var err error
	timed("puppet.Parse", func() { stmts, err = puppet.Parse(t.Source) })
	if err != nil {
		return fail(err)
	}
	timed("puppet.Evaluate", func() {
		cat, err = puppet.Evaluate(stmts, puppet.Config{Facts: core.PlatformFacts(opts.Platform)})
	})
	if err != nil {
		return fail(err)
	}
	realized := cat.Realized()
	c["puppet.resources"] = float64(len(realized))

	// resources (and pkgdb, through the wrapping provider).
	var compileSpan int
	prov := &countingProvider{p: opts.Provider, tr: tr, parent: &compileSpan, req: req}
	if prov.p == nil {
		prov.p = pkgdb.DefaultCatalog()
	}
	compiler := resources.NewCompiler(prov, opts.Platform)
	models := make([]fs.Expr, 0, len(realized))
	for _, r := range realized {
		compileSpan = tr.start(root, "resources.Compile", req)
		e, err := compiler.Compile(r)
		tr.finish(compileSpan)
		if err != nil {
			return fail(err)
		}
		models = append(models, e)
		c["resources.model_nodes"] += float64(fs.Size(e))
	}
	c["pkgdb.calls"] = float64(prov.calls)

	// fs: hash-consing into a fresh interner.
	in := fs.NewInterner()
	interned := make([]fs.Expr, len(models))
	timed("fs.InternWithStats", func() {
		for i, e := range models {
			h, st := in.InternWithStats(e)
			interned[i] = h
			c["fs.intern_hits"] += float64(st.Hits)
			c["fs.intern_misses"] += float64(st.Misses)
		}
	})

	// commute: summaries, then every pair.
	sums := make([]*commute.Summary, len(interned))
	timed("commute.Analyze", func() {
		for i, e := range interned {
			sums[i] = commute.Analyze(e)
		}
	})
	var overlapping [][2]int
	timed("commute.Commute", func() {
		for i := range sums {
			for j := i + 1; j < len(sums); j++ {
				c["commute.pairs"]++
				if commute.Commute(sums[i], sums[j]) {
					c["commute.commuting"]++
				} else if len(overlapping) < maxQueryPairs {
					overlapping = append(overlapping, [2]int{i, j})
				}
			}
		}
	})

	// prune: definitive writes of every model.
	timed("prune.DefinitiveWrites", func() {
		for _, e := range interned {
			prune.DefinitiveWrites(e)
		}
	})

	// sym: the solver-backed commutativity query on overlapping pairs, for
	// a determinacy check (an idempotence check asks none).
	if t.Check == checkIdem {
		overlapping = nil
	}
	for _, p := range overlapping {
		sp := tr.start(root, "sym.Commutes", req)
		// An exhausted budget is an answer here too: the core counts it
		// as non-commuting.
		_, _, _ = sym.Commutes(interned[p[0]], interned[p[1]], sym.Options{Budget: core.DefaultCommuteBudget})
		tr.finish(sp)
	}

	// sym, smt and sat: the check's own solver queries, encoded and solved
	// as sym.Equiv does it — the idempotence query e ≢ e;e for an
	// idempotence check, else the commutativity query of every overlapping
	// pair.
	queries := make([][2]fs.Expr, 0, len(overlapping))
	budget := int64(core.DefaultCommuteBudget)
	if t.Check == checkIdem {
		budget = 0 // CheckIdempotence runs unbounded
		sys, err := core.FromCatalog(cat, opts)
		if err != nil {
			return fail(err)
		}
		g := sys.ExprGraph()
		order, err := g.TopoSort()
		if err != nil {
			return fail(err)
		}
		seq := make([]fs.Expr, len(order))
		for i, n := range order {
			seq[i] = g.Label(n)
		}
		e := fs.SeqAll(seq...)
		queries = append(queries, [2]fs.Expr{e, fs.Seq{E1: e, E2: e}})
	} else {
		for _, p := range overlapping {
			a, b := interned[p[0]], interned[p[1]]
			queries = append(queries, [2]fs.Expr{fs.Seq{E1: a, E2: b}, fs.Seq{E1: b, E2: a}})
		}
	}
	for _, q := range queries {
		dom := fs.Dom(q[0])
		dom.AddAll(fs.Dom(q[1]))
		en := sym.NewEncoder(sym.NewVocab(dom, q[0], q[1]))
		en.S.SetBudget(budget)
		input := en.FreshInputState("in")
		var out1, out2 *sym.State
		timed("sym.Encoder.Apply", func() {
			out1 = en.Apply(q[0], input)
			out2 = en.Apply(q[1], input)
		})
		en.S.Assert(en.StatesDiffer(out1, out2))
		timed("smt.Solver.Check", func() { en.S.Check() })
		co := en.S.Counters()
		c["smt.terms"] += float64(en.S.NumTerms())
		c["sat.conflicts"] += float64(co.Conflicts)
		c["sat.propagations"] += float64(co.Propagations)
		c["sat.decisions"] += float64(co.Decisions)
	}

	tr.finish(root)
	out.MS = float64(time.Since(start)) / 1e6
	out.Spans = tr.snapshot()
	return out
}
