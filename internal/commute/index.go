package commute

import (
	"slices"

	"repro/internal/fs"
)

// Index is a footprint index over a set of summaries, each registered
// under a caller-chosen integer id. It answers "which indexed summaries
// does this one fail to commute with?" by looking up only the paths and
// directories the query summary touches, instead of calling Commute
// against every member: Conflicts(s) is exactly the set of ids t with
// !Commute(s, t). An Index is not safe for concurrent mutation; lookups
// on an index nobody is adding to may run concurrently.
type Index struct {
	// byPath maps a path to the ids with a non-⊥ effect on it, split by
	// effect so a lookup visits only the incompatible ones.
	byPath map[fs.Path]*pathUsers
	// observers maps a directory to the ids observing its child-set.
	observers map[fs.Path][]int
	// childMods maps a directory to the ids that write or ensure one of
	// its children (an id appears once per such child).
	childMods map[fs.Path][]int
}

type pathUsers struct {
	read, ensure, write []int
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		byPath:    make(map[fs.Path]*pathUsers),
		observers: make(map[fs.Path][]int),
		childMods: make(map[fs.Path][]int),
	}
}

// Add registers s under id. Each id should be added once.
func (x *Index) Add(id int, s *Summary) {
	for p, e := range s.paths {
		u := x.byPath[p]
		if u == nil {
			u = &pathUsers{}
			x.byPath[p] = u
		}
		switch e {
		case Read:
			u.read = append(u.read, id)
		case EnsureDir:
			u.ensure = append(u.ensure, id)
		case Write:
			u.write = append(u.write, id)
		default:
			continue
		}
		if e != Read && !p.IsRoot() {
			x.childMods[p.Parent()] = append(x.childMods[p.Parent()], id)
		}
	}
	for d := range s.childObs {
		x.observers[d] = append(x.observers[d], id)
	}
}

// Conflicts returns, in ascending order and without duplicates, every
// indexed id whose summary does not commute with s (including s's own id
// when s is indexed and conflicts with itself). The three clauses mirror
// Commute: an incompatible effect on a shared path, s observing a
// directory another id modifies a child of, and the converse.
func (x *Index) Conflicts(s *Summary) []int {
	var out []int
	for p, e := range s.paths {
		if u := x.byPath[p]; u != nil {
			switch e {
			case Read:
				out = append(out, u.ensure...)
				out = append(out, u.write...)
			case EnsureDir:
				out = append(out, u.read...)
				out = append(out, u.write...)
			case Write:
				out = append(out, u.read...)
				out = append(out, u.ensure...)
				out = append(out, u.write...)
			}
		}
		if (e == EnsureDir || e == Write) && !p.IsRoot() {
			out = append(out, x.observers[p.Parent()]...)
		}
	}
	for d := range s.childObs {
		out = append(out, x.childMods[d]...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Observers returns the ids whose summaries observe the child-set of d,
// in the order they were added. The slice is shared with the index and
// must not be modified.
func (x *Index) Observers(d fs.Path) []int { return x.observers[d] }
