// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-literal watches, VSIDS branching, first-UIP clause
// learning, learnt-clause minimization, phase saving and Luby restarts.
//
// It is the decision-procedure substrate for Rehearsal's determinacy and
// idempotence checks: the paper uses Z3 on effectively-propositional
// formulas over a finite domain, which package smt reduces to propositional
// logic and this package decides.
package sat

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Var is a propositional variable, numbered from 1.
type Var int32

// Lit is a literal: a variable or its negation.
// Internally lit = var<<1 | sign, with sign 1 meaning negated.
type Lit int32

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1 | 1) }

// MkLit returns the literal of v with the given polarity.
func MkLit(v Var, positive bool) Lit {
	if positive {
		return PosLit(v)
	}
	return NegLit(v)
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// IsPos reports whether the literal is positive.
func (l Lit) IsPos() bool { return l&1 == 0 }

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// String renders the literal as "x3" or "¬x3".
func (l Lit) String() string {
	if l.IsPos() {
		return fmt.Sprintf("x%d", l.Var())
	}
	return fmt.Sprintf("¬x%d", l.Var())
}

// Status is the result of Solve.
type Status int

// Possible results of Solve.
const (
	Unknown Status = iota // budget exhausted
	Sat                   // a model was found
	Unsat                 // the formula is unsatisfiable
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// ErrBudget is returned by Solve when the conflict budget was exhausted.
var ErrBudget = errors.New("sat: conflict budget exhausted")

type value int8

const (
	vUnknown value = iota
	vTrue
	vFalse
)

func (v value) neg() value {
	switch v {
	case vTrue:
		return vFalse
	case vFalse:
		return vTrue
	default:
		return vUnknown
	}
}

type clauseRef int32

const nilClause clauseRef = -1

type clause struct {
	lits   []Lit
	learnt bool
	act    float64
	// lbd is the clause's literal-block distance (glue): the number of
	// distinct decision levels among its literals when it was learnt,
	// refreshed downward when the clause is used in later conflicts. Low
	// LBD predicts reuse far better than activity alone (Glucose); clauses
	// with lbd <= keepGlue survive every reduceDB unconditionally.
	lbd int32
}

type watcher struct {
	cref    clauseRef
	blocker Lit // a literal of the clause; if true, skip visiting
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses []clause
	free    []clauseRef // recycled learnt clause slots

	watches [][]watcher // indexed by literal

	assigns  []value // indexed by var
	phase    []bool  // saved phase, indexed by var
	level    []int32 // decision level of assignment, indexed by var
	reason   []clauseRef
	activity []float64
	order    *varHeap

	trail    []Lit
	trailLim []int32 // trail index at each decision level
	qhead    int

	varInc    float64
	claInc    float64
	seen      []bool
	unsat     bool // formula already proven unsat by unit propagation at level 0
	conflicts int64
	decisions int64
	props     int64
	restarts  int64
	nLearnt   int
	maxLearnt int

	// cfg holds the normalized search-heuristic knobs (see config.go);
	// rngState is the config-seeded xorshift64 state behind RandomFreq
	// and PhaseRandom. stop, when set, lets another goroutine abandon a
	// running Solve — the portfolio runner's loser cancellation.
	cfg      Config
	rngState uint64
	stop     *atomic.Bool

	// Incremental-solving state (see incremental.go).
	released    []Var // vars retired by ReleaseVar, scrubbed at the next Simplify
	recycled    []Var // fully scrubbed vars available for NewVar reuse
	dirty       bool  // clauses added since the last preprocessing pass
	subsumeHead int   // clause-index watermark for the subsumption pass
	simp        SimplifyStats

	// Budget limits the number of conflicts Solve may encounter; 0 means
	// unlimited. Used by the timeout-bearing configurations of the
	// determinacy checker.
	Budget int64
	// Deadline aborts Solve with Unknown once passed (checked every few
	// conflicts); the zero value means no deadline.
	Deadline time.Time
}

// New creates an empty solver with the default configuration.
func New() *Solver { return NewWithConfig(Config{}) }

// NewWithConfig creates an empty solver with the given search
// configuration. The zero Config reproduces New's historical behavior
// exactly; no Config field can change a SAT/UNSAT verdict.
func NewWithConfig(cfg Config) *Solver {
	cfg = cfg.withDefaults()
	s := &Solver{
		varInc:   1,
		claInc:   1,
		cfg:      cfg,
		rngState: cfg.Seed,
	}
	s.order = newVarHeap(&s.activity)
	// Var 0 is unused so literals index cleanly.
	s.assigns = append(s.assigns, vUnknown)
	s.phase = append(s.phase, false)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nilClause)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	return s
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) - 1 }

// NumClauses returns the number of problem (non-learnt) clauses added.
func (s *Solver) NumClauses() int {
	n := 0
	for _, c := range s.clauses {
		if !c.learnt && c.lits != nil {
			n++
		}
	}
	return n
}

// Conflicts returns the number of conflicts encountered so far.
func (s *Solver) Conflicts() int64 { return s.conflicts }

// NewVar allocates a fresh variable, reusing a recycled one (see
// ReleaseVar) when available.
func (s *Solver) NewVar() Var {
	if n := len(s.recycled); n > 0 {
		v := s.recycled[n-1]
		s.recycled = s.recycled[:n-1]
		s.order.push(v)
		return v
	}
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, vUnknown)
	s.phase = append(s.phase, s.initPhase())
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nilClause)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// initPhase returns the starting branching phase for a fresh variable
// under the configured policy.
func (s *Solver) initPhase() bool {
	switch s.cfg.Phase {
	case PhaseTrue:
		return true
	case PhaseRandom:
		return s.rnd()&1 == 0
	default:
		return false
	}
}

// rnd advances the config-seeded xorshift64 state. Deterministic for a
// given Config: no global randomness, no time.
func (s *Solver) rnd() uint64 {
	x := s.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rngState = x
	return x
}

// randFloat returns a deterministic float in [0, 1).
func (s *Solver) randFloat() float64 {
	return float64(s.rnd()>>11) / (1 << 53)
}

// SetStop installs (or with nil clears) a cancellation flag checked on
// every Solve iteration: when the flag becomes true, Solve backtracks to
// the root level and returns Unknown. The solver remains usable — losing
// a portfolio race does not poison the session.
func (s *Solver) SetStop(f *atomic.Bool) { s.stop = f }

// ConfigName returns the name of the solver's search configuration.
func (s *Solver) ConfigName() string { return s.cfg.Name }

func (s *Solver) litValue(l Lit) value {
	v := s.assigns[l.Var()]
	if !l.IsPos() {
		return v.neg()
	}
	return v
}

// AddClause adds a clause. Duplicate literals are removed; clauses
// containing both a literal and its negation are dropped as tautologies.
// Returns false if the formula became trivially unsatisfiable (an empty
// clause, or a top-level conflict from unit propagation of a unit clause).
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	s.dirty = true
	// Adding a clause invalidates any previous model: drop back to the root
	// decision level so the level-0 simplification below is sound.
	s.cancelUntil(0)
	// Normalize: sort, dedupe, drop false literals, detect tautology and
	// satisfied clauses (at level 0).
	ls := make([]Lit, 0, len(lits))
	ls = append(ls, lits...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Neg() {
			return true // tautology
		}
		switch s.litValue(l) {
		case vTrue:
			return true // already satisfied at level 0
		case vFalse:
			// drop
		default:
			out = append(out, l)
		}
		prev = l
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.enqueue(out[0], nilClause)
		if s.propagate() != nilClause {
			s.unsat = true
			return false
		}
		return true
	}
	cref := s.allocClause(out, false)
	s.attach(cref)
	return true
}

func (s *Solver) allocClause(lits []Lit, learnt bool) clauseRef {
	c := clause{lits: append([]Lit(nil), lits...), learnt: learnt}
	if n := len(s.free); learnt && n > 0 {
		cref := s.free[n-1]
		s.free = s.free[:n-1]
		s.clauses[cref] = c
		return cref
	}
	s.clauses = append(s.clauses, c)
	return clauseRef(len(s.clauses) - 1)
}

func (s *Solver) attach(cref clauseRef) {
	c := &s.clauses[cref]
	w0 := watcher{cref, c.lits[1]}
	w1 := watcher{cref, c.lits[0]}
	s.watches[c.lits[0].Neg()] = append(s.watches[c.lits[0].Neg()], w0)
	s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], w1)
}

func (s *Solver) enqueue(l Lit, from clauseRef) {
	v := l.Var()
	if l.IsPos() {
		s.assigns[v] = vTrue
	} else {
		s.assigns[v] = vFalse
	}
	s.phase[v] = l.IsPos()
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; returns the conflicting clause or
// nilClause.
func (s *Solver) propagate() clauseRef {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.props++
		ws := s.watches[l]
		out := ws[:0]
		var conflict clauseRef = nilClause
	loop:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.litValue(w.blocker) == vTrue {
				out = append(out, w)
				continue
			}
			c := &s.clauses[w.cref]
			// Ensure the false literal (l.Neg()) is at position 1.
			if c.lits[0] == l.Neg() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.litValue(first) == vTrue {
				out = append(out, watcher{w.cref, first})
				continue
			}
			// Look for a new watch.
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != vFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], watcher{w.cref, first})
					continue loop
				}
			}
			// Clause is unit or conflicting.
			out = append(out, w)
			if s.litValue(first) == vFalse {
				conflict = w.cref
				// Copy remaining watchers and stop.
				out = append(out, ws[i+1:]...)
				s.qhead = len(s.trail)
				break
			}
			s.enqueue(first, w.cref)
		}
		s.watches[l] = out
		if conflict != nilClause {
			return conflict
		}
	}
	return nilClause
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		v := s.trail[i].Var()
		s.assigns[v] = vUnknown
		s.reason[v] = nilClause
		s.order.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

// keepGlue is the LBD at or below which a learnt clause is never deleted:
// glue clauses stitch two decision levels together and are re-derived
// almost immediately if dropped, so keeping them is nearly free insurance.
const keepGlue = 2

// computeLBD returns the literal-block distance of a clause under the
// current assignment: the number of distinct nonzero decision levels among
// its literals. Unassigned literals (level tracked as 0 alongside root
// assignments) collapse into one block, which only underestimates — safe,
// since lower LBD means "keep longer".
func (s *Solver) computeLBD(lits []Lit) int32 {
	var n int32
	seen := make(map[int32]struct{}, len(lits))
	for _, l := range lits {
		lv := s.level[l.Var()]
		if lv == 0 {
			continue
		}
		if _, ok := seen[lv]; !ok {
			seen[lv] = struct{}{}
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

func (s *Solver) bumpClause(cref clauseRef) {
	c := &s.clauses[cref]
	if !c.learnt {
		return
	}
	// A clause involved in a conflict gets its glue refreshed downward:
	// the assignment that re-derived it may span fewer decision levels
	// than the one it was learnt under.
	if nl := s.computeLBD(c.lits); nl < c.lbd {
		c.lbd = nl
	}
	c.act += s.claInc
	if c.act > 1e20 {
		for i := range s.clauses {
			s.clauses[i].act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (with the asserting literal first) and the backjump level.
func (s *Solver) analyze(conflict clauseRef) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	cref := conflict

	for {
		s.bumpClause(cref)
		c := s.clauses[cref].lits
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal of the reason clause
		}
		for _, q := range c[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal on the trail to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		cref = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()

	// Mark remaining literals for the redundancy check. Snapshot first: the
	// in-place filter below overwrites the backing array.
	orig := append([]Lit(nil), learnt...)
	for _, l := range orig[1:] {
		s.seen[l.Var()] = true
	}
	// Learnt-clause minimization: drop literals implied by the rest.
	out := learnt[:1]
	for _, l := range orig[1:] {
		if s.reason[l.Var()] == nilClause || !s.redundant(l) {
			out = append(out, l)
		}
	}
	for _, l := range orig[1:] {
		s.seen[l.Var()] = false
	}
	learnt = out

	// Compute backjump level: highest level among learnt[1:].
	backjump := 0
	if len(learnt) > 1 {
		maxIdx := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxIdx].Var()] {
				maxIdx = i
			}
		}
		learnt[1], learnt[maxIdx] = learnt[maxIdx], learnt[1]
		backjump = int(s.level[learnt[1].Var()])
	}
	return learnt, backjump
}

// redundant reports whether literal l of a learnt clause is implied by the
// other marked literals (local minimization: every literal of l's reason is
// marked or at level 0).
func (s *Solver) redundant(l Lit) bool {
	cref := s.reason[l.Var()]
	c := s.clauses[cref].lits
	for _, q := range c[1:] {
		v := q.Var()
		if s.level[v] != 0 && !s.seen[v] {
			return false
		}
	}
	return true
}

func (s *Solver) record(learnt []Lit) {
	if len(learnt) == 1 {
		s.enqueue(learnt[0], nilClause)
		return
	}
	cref := s.allocClause(learnt, true)
	s.clauses[cref].lbd = s.computeLBD(learnt)
	s.nLearnt++
	s.attach(cref)
	s.bumpClause(cref)
	s.enqueue(learnt[0], cref)
}

// reduceDB removes roughly half of the learnt clauses, ranked by LBD
// (glue) with activity as the tie-breaker. Binary clauses, clauses that
// are reasons for current assignments, and glue clauses (lbd <= keepGlue)
// are kept unconditionally; the remaining candidates are sorted
// worst-first — highest LBD, then lowest activity — and the worst half is
// deleted. Called between restarts (at decision level 0). Deletion only
// ever drops learnt (implied) clauses, so any ranking preserves verdicts;
// the random differential test pins that.
func (s *Solver) reduceDB() {
	locked := make(map[clauseRef]bool)
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != nilClause {
			locked[r] = true
		}
	}
	type cand struct {
		cref clauseRef
		lbd  int32
		act  float64
	}
	var cands []cand
	for i := range s.clauses {
		c := &s.clauses[i]
		cref := clauseRef(i)
		if !c.learnt || c.lits == nil || len(c.lits) <= 2 || locked[cref] {
			continue
		}
		if c.lbd <= keepGlue {
			continue
		}
		cands = append(cands, cand{cref, c.lbd, c.act})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].lbd != cands[j].lbd {
			return cands[i].lbd > cands[j].lbd
		}
		return cands[i].act < cands[j].act
	})
	for _, c := range cands[:len(cands)/2] {
		s.detach(c.cref)
		s.clauses[c.cref] = clause{}
		s.free = append(s.free, c.cref)
		s.nLearnt--
	}
}

// detach removes the clause's two watchers.
func (s *Solver) detach(cref clauseRef) {
	c := &s.clauses[cref]
	for _, w := range []Lit{c.lits[0].Neg(), c.lits[1].Neg()} {
		ws := s.watches[w]
		for i := range ws {
			if ws[i].cref == cref {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

func (s *Solver) pickBranchLit() (Lit, bool) {
	// Random decisions (RandomFreq > 0): peek a uniformly random heap
	// slot without popping; if it is unassigned, branch on it. The
	// variable stays in the heap — a later VSIDS pop skips it once
	// assigned — so no ordering invariant is disturbed.
	if s.cfg.RandomFreq > 0 && len(s.order.heap) > 0 && s.randFloat() < s.cfg.RandomFreq {
		v := s.order.heap[int(s.rnd()%uint64(len(s.order.heap)))]
		if s.assigns[v] == vUnknown {
			return MkLit(v, s.phase[v]), true
		}
	}
	for {
		v, ok := s.order.pop()
		if !ok {
			return 0, false
		}
		if s.assigns[v] == vUnknown {
			return MkLit(v, s.phase[v]), true
		}
	}
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i >= 1<<k {
			continue
		}
		return luby(i - (1 << (k - 1)) + 1)
	}
}

// Solve decides satisfiability under the given assumptions. It returns Sat
// with a model retrievable via Value, Unsat, or Unknown if the conflict
// budget was exhausted.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if s.unsat {
		return Unsat
	}
	s.cancelUntil(0)
	// Root-level preprocessing: whenever clauses were added since the last
	// pass, simplify the database before entering the search loop.
	if s.dirty && !s.Simplify() {
		return Unsat
	}
	restartIdx := int64(1)
	conflictsAtStart := s.conflicts
	geomInterval := float64(s.cfg.RestartBase)
	restartBudget := luby(restartIdx) * s.cfg.RestartBase
	if s.cfg.Restart == RestartGeometric {
		restartBudget = int64(geomInterval)
	}

	for {
		if s.stop != nil && s.stop.Load() {
			s.cancelUntil(0)
			return Unknown
		}
		conflict := s.propagate()
		if conflict != nilClause {
			s.conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			learnt, backjump := s.analyze(conflict)
			s.cancelUntil(backjump)
			s.record(learnt)
			s.varInc /= s.cfg.VarDecay
			s.claInc /= s.cfg.ClauseDecay
			if s.Budget > 0 && s.conflicts-conflictsAtStart >= s.Budget {
				s.cancelUntil(0)
				return Unknown
			}
			if !s.Deadline.IsZero() && s.conflicts%64 == 0 && time.Now().After(s.Deadline) {
				s.cancelUntil(0)
				return Unknown
			}
			if s.conflicts-conflictsAtStart >= restartBudget {
				restartIdx++
				s.restarts++
				if s.cfg.Restart == RestartGeometric {
					geomInterval *= s.cfg.RestartGrowth
					restartBudget = s.conflicts - conflictsAtStart + int64(geomInterval)
				} else {
					restartBudget = s.conflicts - conflictsAtStart + luby(restartIdx)*s.cfg.RestartBase
				}
				s.cancelUntil(0)
				if s.maxLearnt == 0 {
					s.maxLearnt = s.cfg.MaxLearntBase + 2*s.NumClauses()
				}
				if s.nLearnt > s.maxLearnt {
					s.reduceDB()
					// Geometric growth of the learnt-clause budget.
					s.maxLearnt += s.maxLearnt * s.cfg.MaxLearntGrowthPct / 100
				}
			}
			continue
		}

		// Re-apply assumptions below any decisions.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.litValue(a) {
			case vTrue:
				s.newDecisionLevel() // dummy level to keep indices aligned
				continue
			case vFalse:
				// Assumptions conflict with the formula.
				s.cancelUntil(0)
				return Unsat
			default:
				s.newDecisionLevel()
				s.enqueue(a, nilClause)
				continue
			}
		}

		l, ok := s.pickBranchLit()
		if !ok {
			return Sat // all variables assigned
		}
		s.decisions++
		s.newDecisionLevel()
		s.enqueue(l, nilClause)
	}
}

// Value returns the model value of v after Solve returned Sat. Unassigned
// variables (possible only if v was created after Solve) report false.
func (s *Solver) Value(v Var) bool {
	return s.assigns[v] == vTrue
}

// Stats returns a human-readable summary of solver counters.
func (s *Solver) Stats() string {
	return fmt.Sprintf("vars=%d clauses=%d conflicts=%d decisions=%d propagations=%d",
		s.NumVars(), s.NumClauses(), s.conflicts, s.decisions, s.props)
}

// varHeap is a max-heap over variable activity used for VSIDS branching.
// indices holds each variable's heap position, -1 when it is not in the
// heap; it grows as push sees new variables.
type varHeap struct {
	activity *[]float64
	heap     []Var
	indices  []int
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{activity: act}
}

func (h *varHeap) less(i, j int) bool {
	return (*h.activity)[h.heap[i]] > (*h.activity)[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.indices[h.heap[i]] = i
	h.indices[h.heap[j]] = j
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *varHeap) contains(v Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

func (h *varHeap) push(v Var) {
	for int(v) >= len(h.indices) {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() (Var, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.indices[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v Var) {
	if h.contains(v) {
		h.up(h.indices[v])
	}
}

// Dimacs renders the problem clauses in DIMACS CNF format, for debugging
// with external solvers.
//
//nolint:unused // debugging aid
func (s *Solver) Dimacs() string {
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", s.NumVars(), s.NumClauses())
	for _, c := range s.clauses {
		if c.learnt || c.lits == nil {
			continue
		}
		for _, l := range c.lits {
			n := int32(l.Var())
			if !l.IsPos() {
				n = -n
			}
			fmt.Fprintf(&b, "%d ", n)
		}
		b.WriteString("0\n")
	}
	return b.String()
}
