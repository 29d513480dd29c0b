package sym

// Portfolio racing: k solver configurations attack the same query
// concurrently, the first decided verdict wins, and losers are cancelled
// through the SAT stop flag. Racing is sound because the SAT/UNSAT
// verdict is config-independent — configs steer search order, never the
// answer — and deterministic in its observable output because witnesses
// are re-derived by canonicalCounterexample, which depends only on the
// formula (see equiv.go). The race therefore changes latency and nothing
// else.
//
// RaceEquiv/RaceCommutes race pre-built Sessions (the warm pooled path
// of internal/core, one session per config); PortfolioEquiv and
// PortfolioCommutes build fresh sessions for a single query and race
// them the same way (the stateless path; also what the differential
// fuzzer exercises).

import (
	"sync"
	"sync/atomic"

	"repro/internal/fs"
	"repro/internal/sat"
)

// Metrics accumulates SAT search counters across concurrent queries.
// All methods are safe for concurrent use.
type Metrics struct {
	decisions    atomic.Int64
	propagations atomic.Int64
	conflicts    atomic.Int64
	restarts     atomic.Int64
}

func (m *Metrics) add(c sat.Counters) {
	m.decisions.Add(c.Decisions)
	m.propagations.Add(c.Propagations)
	m.conflicts.Add(c.Conflicts)
	m.restarts.Add(c.Restarts)
}

// Counters returns the accumulated totals.
func (m *Metrics) Counters() sat.Counters {
	return sat.Counters{
		Decisions:    m.decisions.Load(),
		Propagations: m.propagations.Load(),
		Conflicts:    m.conflicts.Load(),
		Restarts:     m.restarts.Load(),
	}
}

// raceCheck runs one session's leg of a race: encode, assert inside a
// fresh scope, and Check under the shared stop flag. It returns the raw
// status and leaves the scope OPEN — the winner's model must survive
// until canonical extraction; every leg must eventually be closed with
// endRace by whoever owns the session next.
func (s *Session) raceCheck(e1, e2 fs.Expr, opts Options, stop *atomic.Bool) sat.Status {
	s.stats.Queries++
	if s.en.S.LearntClauses() > sessionLearntCap {
		s.en.S.ClearLearnts()
	}
	before := s.en.S.Counters()
	out1 := s.applyMemo(e1)
	out2 := s.applyMemo(e2)
	s.en.S.SetBudget(opts.Budget)
	s.en.S.SetStop(stop)
	s.en.S.Push()
	s.en.S.Assert(s.en.StatesDiffer(out1, out2))
	st := s.en.S.Check()
	delta := s.en.S.Counters().Sub(before)
	s.stats.Search = s.stats.Search.Add(delta)
	if opts.Metrics != nil {
		opts.Metrics.add(delta)
	}
	return st
}

// endRace closes a race leg: clears the stop flag and retires the query
// scope, leaving the session ready for its next query.
func (s *Session) endRace() {
	s.en.S.SetStop(nil)
	s.en.S.Pop()
}

// RaceEquiv decides e1 ≡ e2 by racing the given sessions (one goroutine
// each; every session must be otherwise idle and share one vocabulary).
// The first session to decide wins; the rest are stopped and their
// scopes retired before RaceEquiv returns — no goroutine and no open
// scope outlives the call. On inequivalence the counterexample is the
// canonical witness, independent of which config won. All legs
// exhausting their budget returns ErrBudget. The winner's index is
// returned for attribution (-1 on ErrBudget).
func RaceEquiv(sessions []*Session, e1, e2 fs.Expr, opts Options) (bool, *Counterexample, int, error) {
	if len(sessions) == 1 {
		eq, cex, err := sessions[0].Equiv(e1, e2, opts)
		return eq, cex, 0, err
	}
	var (
		stop     atomic.Bool
		winner   atomic.Int32
		statuses = make([]sat.Status, len(sessions))
		wg       sync.WaitGroup
	)
	winner.Store(-1)
	for i, sess := range sessions {
		wg.Add(1)
		go func(i int, sess *Session) {
			defer wg.Done()
			st := sess.raceCheck(e1, e2, opts, &stop)
			statuses[i] = st
			if st != sat.Unknown && winner.CompareAndSwap(-1, int32(i)) {
				stop.Store(true)
				return // scope stays open for extraction
			}
			sess.endRace()
		}(i, sess)
	}
	wg.Wait()
	w := int(winner.Load())
	if w < 0 {
		return false, nil, -1, ErrBudget
	}
	sess := sessions[w]
	defer sess.endRace()
	if statuses[w] == sat.Unsat {
		return true, nil, w, nil
	}
	// The winner set the stop flag to cancel the losers; clear it before
	// the canonicalization probes or they would abort instantly.
	sess.en.S.SetStop(nil)
	before := sess.en.S.Counters()
	cex := canonicalCounterexample(sess.en, sess.input, e1, e2)
	delta := sess.en.S.Counters().Sub(before)
	sess.stats.Search = sess.stats.Search.Add(delta)
	if opts.Metrics != nil {
		opts.Metrics.add(delta)
	}
	return false, cex, w, nil
}

// RaceCommutes decides e1; e2 ≡ e2; e1 by racing the sessions.
func RaceCommutes(sessions []*Session, e1, e2 fs.Expr, opts Options) (bool, *Counterexample, int, error) {
	return RaceEquiv(sessions, fs.Seq{E1: e1, E2: e2}, fs.Seq{E1: e2, E2: e1}, opts)
}

// PortfolioEquiv decides e1 ≡ e2 by racing fresh sessions, one per
// config, over the query's own vocabulary. Semantics match RaceEquiv;
// use it when no warm session pool exists.
func PortfolioEquiv(e1, e2 fs.Expr, cfgs []sat.Config, opts Options) (bool, *Counterexample, int, error) {
	if len(cfgs) == 0 {
		cfgs = []sat.Config{{}}
	}
	dom := fs.Dom(e1)
	dom.AddAll(fs.Dom(e2))
	v := NewVocab(dom, e1, e2)
	sessions := make([]*Session, len(cfgs))
	for i, cfg := range cfgs {
		sessions[i] = NewSessionConfig(v, cfg)
	}
	return RaceEquiv(sessions, e1, e2, opts)
}

// PortfolioCommutes decides e1; e2 ≡ e2; e1 by racing fresh sessions.
func PortfolioCommutes(e1, e2 fs.Expr, cfgs []sat.Config, opts Options) (bool, *Counterexample, int, error) {
	return PortfolioEquiv(fs.Seq{E1: e1, E2: e2}, fs.Seq{E1: e2, E2: e1}, cfgs, opts)
}
