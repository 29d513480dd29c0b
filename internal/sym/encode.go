package sym

import (
	"fmt"
	"slices"

	"repro/internal/fs"
	"repro/internal/sat"
	"repro/internal/smt"
)

// PathState is the symbolic state of one path: its kind and, when the kind
// is file, its content token.
type PathState struct {
	Kind    smt.Enum
	Content smt.Enum
}

// State is a logical state Σ (figure 7): an ok formula plus a symbolic
// filesystem over the vocabulary's path domain. States are immutable;
// Encoder.Apply returns new states.
//
// The filesystem is a persistent trie over the vocabulary's sorted path
// indices with fan-out trieFan: interior nodes hold children, leaves hold
// the path states of up to trieFan consecutive indices. A write copies
// only the nodes on one root-to-leaf path and shares every other subtree
// with the state it was derived from, so a program's successive states
// cost O(depth) each instead of a copy of the whole domain.
type State struct {
	Ok   smt.T
	v    *Vocab
	root *trieNode
}

// Trie shape: 32-way nodes, so three levels cover 32k paths.
const (
	trieBits = 5
	trieFan  = 1 << trieBits
	trieMask = trieFan - 1
)

// trieNode is an interior node (kids set) or a leaf (vals set). Nodes are
// never mutated once a State refers to them.
type trieNode struct {
	kids []*trieNode
	vals []PathState
}

// trieShift returns the index shift of the root level of a trie over n
// paths: 0 when the root is a leaf.
func trieShift(n int) uint {
	var shift uint
	for n > 1<<(shift+trieBits) {
		shift += trieBits
	}
	return shift
}

// newState builds a state over v from the path states in index order.
func newState(ok smt.T, v *Vocab, vals []PathState) *State {
	return &State{Ok: ok, v: v, root: buildTrie(vals, trieShift(len(vals)))}
}

func buildTrie(vals []PathState, shift uint) *trieNode {
	if shift == 0 {
		return &trieNode{vals: vals}
	}
	span := 1 << shift
	n := &trieNode{kids: make([]*trieNode, 0, (len(vals)+span-1)/span)}
	for lo := 0; lo < len(vals); lo += span {
		hi := min(lo+span, len(vals))
		n.kids = append(n.kids, buildTrie(vals[lo:hi:hi], shift-trieBits))
	}
	return n
}

// Lookup returns the symbolic state of p.
func (st *State) Lookup(p fs.Path) PathState {
	i := st.v.PathIndex(p)
	n := st.root
	for shift := trieShift(len(st.v.Paths)); shift > 0; shift -= trieBits {
		n = n.kids[i>>shift&trieMask]
	}
	return n.vals[i&trieMask]
}

func (st *State) with(p fs.Path, ps PathState) *State {
	i := st.v.PathIndex(p)
	return &State{Ok: st.Ok, v: st.v, root: st.root.with(i, trieShift(len(st.v.Paths)), ps)}
}

// with returns a copy of the subtree n with index i set to ps, sharing
// every child off the path to i.
func (n *trieNode) with(i int, shift uint, ps PathState) *trieNode {
	if shift == 0 {
		vals := slices.Clone(n.vals)
		vals[i&trieMask] = ps
		return &trieNode{vals: vals}
	}
	kids := slices.Clone(n.kids)
	k := i >> shift & trieMask
	kids[k] = kids[k].with(i, shift-trieBits, ps)
	return &trieNode{kids: kids}
}

func (st *State) withOk(ok smt.T) *State {
	return &State{Ok: ok, v: st.v, root: st.root}
}

// Encoder translates FS expressions into formulas over a Solver.
type Encoder struct {
	S *smt.Solver
	V *Vocab
}

// NewEncoder creates an encoder for the vocabulary using a fresh solver.
func NewEncoder(v *Vocab) *Encoder {
	return &Encoder{S: smt.NewSolver(), V: v}
}

// NewEncoderConfig creates an encoder whose fresh solver uses the given
// SAT search configuration (zero value = default).
func NewEncoderConfig(v *Vocab, cfg sat.Config) *Encoder {
	return &Encoder{S: smt.NewSolverConfig(cfg), V: v}
}

// FreshInputState creates the symbolic initial state: one kind variable per
// path and the constant initial-content token ι_p. Contents need no
// variables — they are only moved around by the program, never branched on.
func (en *Encoder) FreshInputState(prefix string) *State {
	vals := make([]PathState, len(en.V.Paths))
	for i, p := range en.V.Paths {
		vals[i] = PathState{
			Kind:    en.S.EnumVar(en.V.KindSort, fmt.Sprintf("%s:kind:%s", prefix, p)),
			Content: en.S.EnumConst(en.V.ContentSort, en.V.InitToken(p)),
		}
	}
	return newState(smt.TrueT, en.V, vals)
}

// ConstState encodes a concrete filesystem as a constant logical state.
// Paths of the domain absent from s are encoded as does-not-exist; file
// contents must be literals of the vocabulary or concretized init tokens.
func (en *Encoder) ConstState(s fs.State) *State {
	vals := make([]PathState, len(en.V.Paths))
	for i, p := range en.V.Paths {
		kind := KindNone
		tok := canonicalToken
		if c, ok := s[p]; ok {
			if c.Kind == fs.KindDir {
				kind = KindDir
			} else {
				kind = KindFile
				tok = en.V.LiteralToken(c.Data)
			}
		}
		vals[i] = PathState{
			Kind:    en.S.EnumConst(en.V.KindSort, kind),
			Content: en.S.EnumConst(en.V.ContentSort, tok),
		}
	}
	return newState(smt.TrueT, en.V, vals)
}

// isDir returns the formula "p is a directory in st". The root is always a
// directory.
func (en *Encoder) isDir(st *State, p fs.Path) smt.T {
	if p.IsRoot() {
		return smt.TrueT
	}
	if !en.V.HasPath(p) {
		panic(fmt.Sprintf("sym: isDir on unmodeled path %s", p))
	}
	return en.S.EnumIs(st.Lookup(p).Kind, KindDir)
}

func (en *Encoder) isFile(st *State, p fs.Path) smt.T {
	if p.IsRoot() {
		return smt.FalseT
	}
	return en.S.EnumIs(st.Lookup(p).Kind, KindFile)
}

func (en *Encoder) isNone(st *State, p fs.Path) smt.T {
	if p.IsRoot() {
		return smt.FalseT
	}
	return en.S.EnumIs(st.Lookup(p).Kind, KindNone)
}

func (en *Encoder) isEmptyDir(st *State, p fs.Path) smt.T {
	none := []smt.T{en.isDir(st, p)}
	for _, q := range en.V.Children(p) {
		none = append(none, en.isNone(st, q))
	}
	return en.S.And(none...)
}

// Pred encodes predicate a over st (encPred in figure 7).
func (en *Encoder) Pred(a fs.Pred, st *State) smt.T {
	switch a := fs.UnwrapPred(a).(type) {
	case fs.True:
		return smt.TrueT
	case fs.False:
		return smt.FalseT
	case fs.Not:
		return en.S.Not(en.Pred(a.P, st))
	case fs.And:
		return en.S.And(en.Pred(a.L, st), en.Pred(a.R, st))
	case fs.Or:
		return en.S.Or(en.Pred(a.L, st), en.Pred(a.R, st))
	case fs.IsFile:
		return en.isFile(st, a.Path)
	case fs.IsDir:
		return en.isDir(st, a.Path)
	case fs.IsEmptyDir:
		return en.isEmptyDir(st, a.Path)
	case fs.IsNone:
		return en.isNone(st, a.Path)
	default:
		panic("sym: unknown predicate")
	}
}

// Apply computes Φ(e)Σ (figure 7): the symbolic strongest postcondition of
// e from st, fusing the ok(e) and f(e) functions.
func (en *Encoder) Apply(e fs.Expr, st *State) *State {
	switch e := fs.Unwrap(e).(type) {
	case fs.Id:
		return st
	case fs.Err:
		return st.withOk(smt.FalseT)
	case fs.Mkdir:
		ok := en.S.And(st.Ok, en.isDir(st, e.Path.Parent()), en.isNone(st, e.Path))
		out := st.with(e.Path, PathState{
			Kind:    en.S.EnumConst(en.V.KindSort, KindDir),
			Content: en.S.EnumConst(en.V.ContentSort, canonicalToken),
		})
		return out.withOk(ok)
	case fs.Creat:
		ok := en.S.And(st.Ok, en.isDir(st, e.Path.Parent()), en.isNone(st, e.Path))
		out := st.with(e.Path, PathState{
			Kind:    en.S.EnumConst(en.V.KindSort, KindFile),
			Content: en.S.EnumConst(en.V.ContentSort, en.V.LiteralToken(e.Content)),
		})
		return out.withOk(ok)
	case fs.Rm:
		ok := en.S.And(st.Ok, en.S.Or(en.isFile(st, e.Path), en.isEmptyDir(st, e.Path)))
		out := st.with(e.Path, PathState{
			Kind:    en.S.EnumConst(en.V.KindSort, KindNone),
			Content: en.S.EnumConst(en.V.ContentSort, canonicalToken),
		})
		return out.withOk(ok)
	case fs.Cp:
		ok := en.S.And(st.Ok,
			en.isFile(st, e.Src),
			en.isDir(st, e.Dst.Parent()),
			en.isNone(st, e.Dst))
		out := st.with(e.Dst, PathState{
			Kind:    en.S.EnumConst(en.V.KindSort, KindFile),
			Content: st.Lookup(e.Src).Content,
		})
		return out.withOk(ok)
	case fs.Seq:
		return en.Apply(e.E2, en.Apply(e.E1, st))
	case fs.If:
		c := en.Pred(e.A, st)
		switch c {
		case smt.TrueT:
			return en.Apply(e.Then, st)
		case smt.FalseT:
			return en.Apply(e.Else, st)
		}
		thenSt := en.Apply(e.Then, st)
		elseSt := en.Apply(e.Else, st)
		return en.merge(c, thenSt, elseSt)
	default:
		panic("sym: unknown expression")
	}
}

// merge joins two branch states under condition c. It walks both tries
// together: a subtree both branches share is reused as is, and EnumIte
// terms are built only for the path states that differ, in index order.
func (en *Encoder) merge(c smt.T, a, b *State) *State {
	return &State{
		Ok:   en.S.Ite(c, a.Ok, b.Ok),
		v:    a.v,
		root: en.mergeNode(c, a.root, b.root),
	}
}

// mergeNode joins the subtrees a (then) and b (else) under c. It returns a
// itself when no path state below differs.
func (en *Encoder) mergeNode(c smt.T, a, b *trieNode) *trieNode {
	if a == b {
		return a
	}
	if a.kids == nil {
		var vals []PathState
		for j, pa := range a.vals {
			pb := b.vals[j]
			if pa.Kind.Same(pb.Kind) && pa.Content.Same(pb.Content) {
				continue
			}
			if vals == nil {
				vals = slices.Clone(a.vals)
			}
			vals[j] = PathState{
				Kind:    en.S.EnumIte(c, pa.Kind, pb.Kind),
				Content: en.S.EnumIte(c, pa.Content, pb.Content),
			}
		}
		if vals == nil {
			return a
		}
		return &trieNode{vals: vals}
	}
	var kids []*trieNode
	for j, ka := range a.kids {
		k := en.mergeNode(c, ka, b.kids[j])
		if k == ka {
			continue
		}
		if kids == nil {
			kids = slices.Clone(a.kids)
		}
		kids[j] = k
	}
	if kids == nil {
		return a
	}
	return &trieNode{kids: kids}
}

// PathDiffers returns the formula "path p differs between a and b":
// different kinds, or both files with different contents.
func (en *Encoder) PathDiffers(a, b *State, p fs.Path) smt.T {
	pa, pb := a.Lookup(p), b.Lookup(p)
	kindNeq := en.S.Not(en.S.EnumEq(pa.Kind, pb.Kind))
	bothFile := en.S.And(
		en.S.EnumIs(pa.Kind, KindFile),
		en.S.EnumIs(pb.Kind, KindFile))
	contentNeq := en.S.Not(en.S.EnumEq(pa.Content, pb.Content))
	return en.S.Or(kindNeq, en.S.And(bothFile, contentNeq))
}

// StatesDiffer returns the formula "a and b are observably different
// outcomes": exactly one errored, or both succeeded with different
// filesystems. Two error states are equal regardless of their filesystems.
func (en *Encoder) StatesDiffer(a, b *State) smt.T {
	diffs := make([]smt.T, 0, len(en.V.Paths)+1)
	for _, p := range en.V.Paths {
		diffs = append(diffs, en.PathDiffers(a, b, p))
	}
	bothOk := en.S.And(a.Ok, b.Ok)
	return en.S.Or(
		en.S.Xor(a.Ok, b.Ok),
		en.S.And(bothOk, en.S.Or(diffs...)),
	)
}

// WellFormed returns the formula asserting st is a well-formed tree over
// the modeled domain: every present path whose parent is also modeled has
// that parent present as a directory. Real machines always satisfy this;
// the paper's semantics quantifies over arbitrary maps, so this is an
// optional strengthening of the initial state (it can only remove
// counterexamples that no real machine could exhibit).
func (en *Encoder) WellFormed(st *State) smt.T {
	var parts []smt.T
	for _, p := range en.V.Paths {
		parent := p.Parent()
		if parent.IsRoot() || !en.V.HasPath(parent) {
			continue
		}
		exists := en.S.Not(en.isNone(st, p))
		parts = append(parts, en.S.Implies(exists, en.isDir(st, parent)))
	}
	return en.S.And(parts...)
}

// ModelState extracts the concrete filesystem assigned to st by the current
// model. Initial-content tokens concretize to unique synthetic strings;
// literal tokens to themselves. It returns smt.ErrNoModel when the last
// Check did not produce a model.
func (en *Encoder) ModelState(st *State) (fs.State, error) {
	out := fs.NewState()
	for _, p := range en.V.Paths {
		ps := st.Lookup(p)
		kind, err := en.S.EnumValue(ps.Kind)
		if err != nil {
			return nil, err
		}
		switch kind {
		case KindDir:
			out[p] = fs.DirContent()
		case KindFile:
			content, err := en.S.EnumValue(ps.Content)
			if err != nil {
				return nil, err
			}
			out[p] = fs.FileContent(en.V.TokenString(content))
		}
	}
	return out, nil
}

// ModelOk reports whether st is a success state in the current model. It
// returns smt.ErrNoModel when the last Check did not produce a model.
func (en *Encoder) ModelOk(st *State) (bool, error) {
	return en.S.BoolValue(st.Ok)
}
