package sym

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fs"
	"repro/internal/smt"
)

// refState is the map-backed symbolic state the persistent trie replaced:
// every write copies the whole map. It is the reference the trie-backed
// State is checked against.
type refState struct {
	ok smt.T
	fs map[fs.Path]PathState
}

func refFromState(v *Vocab, st *State) *refState {
	r := &refState{ok: st.Ok, fs: make(map[fs.Path]PathState, len(v.Paths))}
	for _, p := range v.Paths {
		r.fs[p] = st.Lookup(p)
	}
	return r
}

func (r *refState) with(p fs.Path, ps PathState) *refState {
	out := &refState{ok: r.ok, fs: make(map[fs.Path]PathState, len(r.fs))}
	for q, v := range r.fs {
		out.fs[q] = v
	}
	out.fs[p] = ps
	return out
}

func (r *refState) withOk(ok smt.T) *refState {
	return &refState{ok: ok, fs: r.fs}
}

func refKindIs(en *Encoder, r *refState, p fs.Path, kind int) smt.T {
	if p.IsRoot() {
		return en.S.Bool(kind == KindDir)
	}
	ps, ok := r.fs[p]
	if !ok {
		panic(fmt.Sprintf("path %s not in reference state", p))
	}
	return en.S.EnumIs(ps.Kind, kind)
}

func refPred(en *Encoder, a fs.Pred, r *refState) smt.T {
	switch a := fs.UnwrapPred(a).(type) {
	case fs.True:
		return smt.TrueT
	case fs.False:
		return smt.FalseT
	case fs.Not:
		return en.S.Not(refPred(en, a.P, r))
	case fs.And:
		return en.S.And(refPred(en, a.L, r), refPred(en, a.R, r))
	case fs.Or:
		return en.S.Or(refPred(en, a.L, r), refPred(en, a.R, r))
	case fs.IsFile:
		return refKindIs(en, r, a.Path, KindFile)
	case fs.IsDir:
		return refKindIs(en, r, a.Path, KindDir)
	case fs.IsEmptyDir:
		parts := []smt.T{refKindIs(en, r, a.Path, KindDir)}
		for _, q := range en.V.Paths {
			if q.IsChildOf(a.Path) {
				parts = append(parts, refKindIs(en, r, q, KindNone))
			}
		}
		return en.S.And(parts...)
	case fs.IsNone:
		return refKindIs(en, r, a.Path, KindNone)
	default:
		panic("unknown predicate")
	}
}

// refApply is Encoder.Apply over the reference state.
func refApply(en *Encoder, e fs.Expr, r *refState) *refState {
	write := func(p fs.Path, ok smt.T, kind int, content smt.Enum) *refState {
		return r.with(p, PathState{Kind: en.S.EnumConst(en.V.KindSort, kind), Content: content}).withOk(ok)
	}
	canonical := en.S.EnumConst(en.V.ContentSort, canonicalToken)
	switch e := fs.Unwrap(e).(type) {
	case fs.Id:
		return r
	case fs.Err:
		return r.withOk(smt.FalseT)
	case fs.Mkdir:
		ok := en.S.And(r.ok, refKindIs(en, r, e.Path.Parent(), KindDir), refKindIs(en, r, e.Path, KindNone))
		return write(e.Path, ok, KindDir, canonical)
	case fs.Creat:
		ok := en.S.And(r.ok, refKindIs(en, r, e.Path.Parent(), KindDir), refKindIs(en, r, e.Path, KindNone))
		return write(e.Path, ok, KindFile, en.S.EnumConst(en.V.ContentSort, en.V.LiteralToken(e.Content)))
	case fs.Rm:
		ok := en.S.And(r.ok, en.S.Or(refKindIs(en, r, e.Path, KindFile), refPred(en, fs.IsEmptyDir{Path: e.Path}, r)))
		return write(e.Path, ok, KindNone, canonical)
	case fs.Cp:
		ok := en.S.And(r.ok,
			refKindIs(en, r, e.Src, KindFile),
			refKindIs(en, r, e.Dst.Parent(), KindDir),
			refKindIs(en, r, e.Dst, KindNone))
		return write(e.Dst, ok, KindFile, r.fs[e.Src].Content)
	case fs.Seq:
		return refApply(en, e.E2, refApply(en, e.E1, r))
	case fs.If:
		c := refPred(en, e.A, r)
		switch c {
		case smt.TrueT:
			return refApply(en, e.Then, r)
		case smt.FalseT:
			return refApply(en, e.Else, r)
		}
		a, b := refApply(en, e.Then, r), refApply(en, e.Else, r)
		out := &refState{ok: en.S.Ite(c, a.ok, b.ok), fs: make(map[fs.Path]PathState, len(a.fs))}
		for p, pa := range a.fs {
			pb := b.fs[p]
			if pa.Kind.Same(pb.Kind) && pa.Content.Same(pb.Content) {
				out.fs[p] = pa
				continue
			}
			out.fs[p] = PathState{
				Kind:    en.S.EnumIte(c, pa.Kind, pb.Kind),
				Content: en.S.EnumIte(c, pa.Content, pb.Content),
			}
		}
		return out
	default:
		panic("unknown expression")
	}
}

// treePaths returns n paths forming a tree: directories /dNN each holding
// up to 30 children /dNN/fNN.
func treePaths(n int) []fs.Path {
	var out []fs.Path
	for i := 0; len(out) < n; i++ {
		dir := fs.Path(fmt.Sprintf("/d%02d", i/30))
		if i%30 == 0 {
			out = append(out, dir)
			if len(out) == n {
				break
			}
		}
		out = append(out, fs.Path(fmt.Sprintf("%s/f%02d", dir, i%30)))
	}
	return out
}

// snapshot reads every path state of st in index order.
func snapshot(v *Vocab, st *State) []PathState {
	out := make([]PathState, len(v.Paths))
	for i, p := range v.Paths {
		out[i] = st.Lookup(p)
	}
	return out
}

func samePathState(a, b PathState) bool {
	return a.Kind.Same(b.Kind) && a.Content.Same(b.Content)
}

// TestStateMatchesMapReference applies random programs to the symbolic
// input through the trie-backed State and through the map-backed
// reference on the same solver. Terms are hash-consed, so the two must end
// in syntactically identical ok formulas and path states. The domain sizes
// give tries whose root is a leaf (≤32 paths), one interior level (>32)
// and two interior levels (>1024).
func TestStateMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, c := range []struct {
		paths, trials int
		shift         uint
	}{{12, 40, 0}, {200, 15, trieBits}, {1100, 4, 2 * trieBits}} {
		cfg := fs.GenConfig{Paths: treePaths(c.paths), Contents: []string{"x", "y"}, MaxDepth: 4}
		for trial := 0; trial < c.trials; trial++ {
			var parts []fs.Expr
			for i := 0; i < 30; i++ {
				parts = append(parts, fs.GenExpr(r, cfg, 3))
			}
			e := fs.SeqAll(parts...)
			dom := fs.NewPathSet(cfg.Paths...)
			dom.AddAll(fs.Dom(e))
			v := NewVocabWithLiterals(dom, cfg.Contents, e)
			if got := trieShift(len(v.Paths)); got != c.shift {
				t.Fatalf("%d modeled paths: root shift %d, want %d", len(v.Paths), got, c.shift)
			}
			en := NewEncoder(v)
			in := en.FreshInputState("in")
			before := snapshot(v, in)
			got := en.Apply(e, in)
			want := refApply(en, e, refFromState(v, in))
			if got.Ok != want.ok {
				t.Fatalf("%d paths, trial %d: ok term %d, reference %d\ne=%s", c.paths, trial, got.Ok, want.ok, fs.String(e))
			}
			for i, p := range v.Paths {
				if !samePathState(got.Lookup(p), want.fs[p]) {
					t.Fatalf("%d paths, trial %d: state of %s differs from the reference\ne=%s", c.paths, trial, p, fs.String(e))
				}
				if !samePathState(in.Lookup(p), before[i]) {
					t.Fatalf("%d paths, trial %d: Apply changed the input state at %s", c.paths, trial, p)
				}
			}
		}
	}
}

// Two writes applied to one parent state leave the parent unchanged and do
// not see each other, including writes that land in the same trie leaf.
func TestStateWritesAreIndependent(t *testing.T) {
	paths := treePaths(1100)
	dom := fs.NewPathSet(paths...)
	v := NewVocabWithLiterals(dom, []string{"x"})
	en := NewEncoder(v)
	parent := en.FreshInputState("in")
	before := snapshot(v, parent)
	for _, c := range []struct{ p1, p2 fs.Path }{
		{"/d00/f01", "/d00/f02"}, // same leaf
		{"/d00/f01", "/d34/f20"}, // different subtrees of the root
	} {
		a := en.Apply(fs.Creat{Path: c.p1, Content: "x"}, parent)
		b := en.Apply(fs.Mkdir{Path: c.p2}, parent)
		for i, p := range v.Paths {
			if !samePathState(parent.Lookup(p), before[i]) {
				t.Fatalf("writes to %s and %s changed the parent at %s", c.p1, c.p2, p)
			}
			if changed := !samePathState(a.Lookup(p), before[i]); changed != (p == c.p1) {
				t.Errorf("creat %s: path %s changed=%v", c.p1, p, changed)
			}
			if changed := !samePathState(b.Lookup(p), before[i]); changed != (p == c.p2) {
				t.Errorf("mkdir %s: path %s changed=%v", c.p2, p, changed)
			}
		}
		if a.Ok == parent.Ok || b.Ok == parent.Ok || a.Ok == b.Ok {
			t.Errorf("ok formulas not distinct: parent %d, creat %d, mkdir %d", parent.Ok, a.Ok, b.Ok)
		}
	}
}

// One write shares all but one root-to-leaf path with its parent state:
// its allocation count and size do not grow with the domain.
func TestStateWriteShares(t *testing.T) {
	for _, n := range []int{30, 2500} {
		dom := fs.NewPathSet(treePaths(n)...)
		e := fs.Creat{Path: "/d00/f05", Content: "x"}
		v := NewVocab(dom, e)
		en := NewEncoder(v)
		in := en.FreshInputState("in")
		en.Apply(e, in) // intern the terms once
		allocs := testing.AllocsPerRun(50, func() { en.Apply(e, in) })
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		const runs = 50
		for i := 0; i < runs; i++ {
			en.Apply(e, in)
		}
		runtime.ReadMemStats(&m1)
		bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
		t.Logf("%d paths: %.0f allocs, %d bytes per Apply", n, allocs, bytes)
		if allocs > 80 || bytes > 16<<10 {
			t.Errorf("%d paths: Apply(creat) made %.0f allocations of %d bytes; want at most 80 and 16 KiB", n, allocs, bytes)
		}
	}
}
