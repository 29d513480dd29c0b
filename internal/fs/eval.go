package fs

import "sort"

// ContentKind distinguishes directories from regular files.
type ContentKind uint8

// The two kinds of filesystem objects that FS models.
const (
	KindDir ContentKind = iota
	KindFile
)

// Content is the value stored at a path: either Dir or File(data).
type Content struct {
	Kind ContentKind
	Data string // file contents; meaningless for directories
}

// DirContent is the directory value.
func DirContent() Content { return Content{Kind: KindDir} }

// FileContent is a regular-file value with the given data.
func FileContent(data string) Content { return Content{Kind: KindFile, Data: data} }

// State is a concrete filesystem: a finite map from paths to contents
// (figure 5). The root directory is implicit — it is always a directory and
// never stored in the map.
type State map[Path]Content

// NewState builds an empty filesystem.
func NewState() State { return make(State) }

// Clone returns a copy of the state.
func (s State) Clone() State {
	out := make(State, len(s))
	for p, c := range s {
		out[p] = c
	}
	return out
}

// Equal reports whether two states are identical maps.
func (s State) Equal(other State) bool {
	if len(s) != len(other) {
		return false
	}
	for p, c := range s {
		if oc, ok := other[p]; !ok || oc != c {
			return false
		}
	}
	return true
}

// IsDir reports whether p is a directory in s.
func (s State) IsDir(p Path) bool {
	if p.IsRoot() {
		return true
	}
	c, ok := s[p]
	return ok && c.Kind == KindDir
}

// IsFile reports whether p is a regular file in s.
func (s State) IsFile(p Path) bool {
	c, ok := s[p]
	return ok && c.Kind == KindFile
}

// Exists reports whether p is present in s (the root always exists).
func (s State) Exists(p Path) bool {
	if p.IsRoot() {
		return true
	}
	_, ok := s[p]
	return ok
}

// HasChild reports whether any direct child of p exists in s.
func (s State) HasChild(p Path) bool {
	for q := range s {
		if q.IsChildOf(p) {
			return true
		}
	}
	return false
}

// IsWellFormed reports whether every non-root path in s has all of its
// strict ancestors present as directories. Real machines always satisfy
// this; the paper's semantics quantifies over arbitrary maps.
func (s State) IsWellFormed() bool {
	for p := range s {
		for q := p.Parent(); !q.IsRoot(); q = q.Parent() {
			if c, ok := s[q]; !ok || c.Kind != KindDir {
				return false
			}
		}
	}
	return true
}

// Paths returns the sorted domain of the state.
func (s State) Paths() []Path {
	out := make([]Path, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EvalPred evaluates a predicate on a state per figure 5.
func EvalPred(a Pred, s State) bool {
	switch a := UnwrapPred(a).(type) {
	case True:
		return true
	case False:
		return false
	case Not:
		return !EvalPred(a.P, s)
	case And:
		return EvalPred(a.L, s) && EvalPred(a.R, s)
	case Or:
		return EvalPred(a.L, s) || EvalPred(a.R, s)
	case IsFile:
		return s.IsFile(a.Path)
	case IsDir:
		return s.IsDir(a.Path)
	case IsEmptyDir:
		return s.IsDir(a.Path) && !a.Path.IsRoot() && !s.HasChild(a.Path)
	case IsNone:
		return !s.Exists(a.Path)
	default:
		panic("fs: unknown predicate")
	}
}

// Eval applies e to state s per the denotational semantics of figure 5.
// It returns the resulting state and ok=true, or (nil, false) for the error
// state. The input state is never mutated.
func Eval(e Expr, s State) (State, bool) {
	return evalIn(e, s.Clone())
}

// EvalInto is Eval into a caller-owned scratch state: it clears scratch,
// copies s into it and evaluates e there, so repeated evaluations reuse
// scratch's storage instead of allocating a fresh map each time. The
// returned state is scratch itself (nil for the error state) and is only
// valid until scratch is next used.
func EvalInto(e Expr, s, scratch State) (State, bool) {
	clear(scratch)
	for p, c := range s {
		scratch[p] = c
	}
	return evalIn(e, scratch)
}

// evalIn evaluates with an owned, mutable state.
func evalIn(e Expr, s State) (State, bool) {
	switch e := Unwrap(e).(type) {
	case Id:
		return s, true
	case Err:
		return nil, false
	case Mkdir:
		if e.Path.IsRoot() || !s.IsDir(e.Path.Parent()) || s.Exists(e.Path) {
			return nil, false
		}
		s[e.Path] = DirContent()
		return s, true
	case Creat:
		if e.Path.IsRoot() || !s.IsDir(e.Path.Parent()) || s.Exists(e.Path) {
			return nil, false
		}
		s[e.Path] = FileContent(e.Content)
		return s, true
	case Rm:
		if e.Path.IsRoot() {
			return nil, false
		}
		if s.IsFile(e.Path) || (s.IsDir(e.Path) && !s.HasChild(e.Path)) {
			delete(s, e.Path)
			return s, true
		}
		return nil, false
	case Cp:
		src, ok := s[e.Src]
		if !ok || src.Kind != KindFile {
			return nil, false
		}
		if e.Dst.IsRoot() || !s.IsDir(e.Dst.Parent()) || s.Exists(e.Dst) {
			return nil, false
		}
		s[e.Dst] = FileContent(src.Data)
		return s, true
	case Seq:
		s1, ok := evalIn(e.E1, s)
		if !ok {
			return nil, false
		}
		return evalIn(e.E2, s1)
	case If:
		if EvalPred(e.A, s) {
			return evalIn(e.Then, s)
		}
		return evalIn(e.Else, s)
	default:
		panic("fs: unknown expression")
	}
}

// EquivOn reports whether e1 and e2 agree (same error/success outcome and
// identical final state) on the single input state s. Used by tests and the
// dynamic baseline; the symbolic engine decides equivalence over all states.
func EquivOn(e1, e2 Expr, s State) bool {
	s1, ok1 := Eval(e1, s)
	s2, ok2 := Eval(e2, s)
	if ok1 != ok2 {
		return false
	}
	if !ok1 {
		return true
	}
	return s1.Equal(s2)
}
