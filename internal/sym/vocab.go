// Package sym encodes FS programs as finite-domain logical formulas,
// implementing Φ(e), ok(e) and f(e) from figure 7 of the paper, the bounded
// path domain of figure 8, and equivalence checking of FS expressions
// (lemmas 2 and 3).
//
// A logical state Σ pairs an ok formula with a map from paths to symbolic
// path states. Each path state is a (kind, content) pair: kind ranges over
// {does-not-exist, directory, file} and content over a finite token
// vocabulary — the program's string literals plus one "initial content"
// token ι_p per path. Because FS predicates never observe file contents,
// treating tokens as pairwise-distinct values is exactly as precise as the
// paper's EUF encoding (see DESIGN.md, "Content-token completeness").
package sym

import (
	"fmt"
	"sort"

	"repro/internal/fs"
	"repro/internal/smt"
)

// Kind values of the kind sort.
const (
	KindNone = 0 // path does not exist
	KindDir  = 1 // path is a directory
	KindFile = 2 // path is a regular file
)

// canonicalToken is the content token used for path states whose content is
// meaningless (directories and absent paths). It is index 0 of every
// content sort and is never compared against file contents because state
// equality only compares contents when both sides are files.
const canonicalToken = 0

// Vocab is the finite vocabulary of an encoding problem: the bounded path
// domain and the content tokens.
type Vocab struct {
	Paths    []fs.Path // sorted
	pathIdx  map[fs.Path]int
	Tokens   []string // index 0 is the canonical token
	tokenIdx map[string]int
	initTok  []int                 // per path index, the token index of ι_p
	children map[fs.Path][]fs.Path // modeled direct children per directory, sorted

	KindSort    smt.Sort
	ContentSort smt.Sort
}

// NewVocab builds the vocabulary for the given bounded domain and the
// content literals of the given expressions. The domain should be the
// union of fs.Dom over every expression involved in the query (figure 8).
func NewVocab(dom fs.PathSet, exprs ...fs.Expr) *Vocab {
	return NewVocabWithLiterals(dom, nil, exprs...)
}

// NewVocabWithLiterals is NewVocab with additional content literals beyond
// those appearing in the expressions, for encoding concrete states whose
// file contents the programs never write.
func NewVocabWithLiterals(dom fs.PathSet, extra []string, exprs ...fs.Expr) *Vocab {
	v := &Vocab{
		pathIdx:  make(map[fs.Path]int),
		tokenIdx: make(map[string]int),
		children: make(map[fs.Path][]fs.Path),
	}
	v.Paths = dom.Sorted()
	for i, p := range v.Paths {
		v.pathIdx[p] = i
		if !p.IsRoot() {
			v.children[p.Parent()] = append(v.children[p.Parent()], p)
		}
	}

	v.Tokens = append(v.Tokens, "<canonical>")
	lits := make(map[string]struct{})
	for _, s := range extra {
		lits[s] = struct{}{}
	}
	for _, e := range exprs {
		for lit := range fs.Contents(e) {
			lits[lit] = struct{}{}
		}
	}
	sorted := make([]string, 0, len(lits))
	for lit := range lits {
		sorted = append(sorted, lit)
	}
	sort.Strings(sorted)
	for _, lit := range sorted {
		v.tokenIdx[lit] = len(v.Tokens)
		v.Tokens = append(v.Tokens, lit)
	}
	v.initTok = make([]int, len(v.Paths))
	for i, p := range v.Paths {
		v.initTok[i] = len(v.Tokens)
		v.Tokens = append(v.Tokens, initTokenName(p))
	}

	v.KindSort = smt.Sort{Name: "kind", Size: 3}
	v.ContentSort = smt.Sort{Name: "content", Size: len(v.Tokens)}
	return v
}

func initTokenName(p fs.Path) string { return "ι:" + string(p) }

// HasPath reports whether p is in the modeled domain.
func (v *Vocab) HasPath(p fs.Path) bool {
	_, ok := v.pathIdx[p]
	return ok
}

// PathIndex returns the index of p; p must be in the domain.
func (v *Vocab) PathIndex(p fs.Path) int {
	i, ok := v.pathIdx[p]
	if !ok {
		panic(fmt.Sprintf("sym: path %s not in vocabulary", p))
	}
	return i
}

// LiteralToken returns the token index of the content literal s; s must
// appear in one of the vocabulary's expressions.
func (v *Vocab) LiteralToken(s string) int {
	i, ok := v.tokenIdx[s]
	if !ok {
		panic(fmt.Sprintf("sym: content literal %q not in vocabulary", s))
	}
	return i
}

// InitToken returns the token index of ι_p, the symbolic initial content of
// path p.
func (v *Vocab) InitToken(p fs.Path) int {
	return v.initTok[v.PathIndex(p)]
}

// TokenString returns a concrete string realizing token index t: literals
// map to themselves and initial-content tokens to a unique synthetic string
// so that all tokens concretize to pairwise-distinct contents exactly when
// their indices differ (except literals, which equal themselves).
func (v *Vocab) TokenString(t int) string {
	return v.Tokens[t]
}

// Children returns the modeled direct children of p, in sorted order. The
// slice is shared by every call; callers must not modify it.
func (v *Vocab) Children(p fs.Path) []fs.Path {
	return v.children[p]
}
