// Package graph implements the resource graphs of section 3.1 (figure 4):
// directed acyclic graphs whose vertices are labeled with resources, plus
// the graph algorithms the determinacy analysis needs — cycle detection,
// topological orders, ancestor sets and bounded permutation enumeration.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Node identifies a vertex of a Graph.
type Node int

// Graph is a mutable directed graph with labeled vertices. An edge u → v
// means v depends on u (u must be applied before v). Graphs intended as
// resource graphs must be acyclic; CheckAcyclic reports violations.
type Graph[L any] struct {
	labels  map[Node]L
	out     map[Node]map[Node]struct{}
	in      map[Node]map[Node]struct{}
	nextID  Node
	ordered []Node // insertion order for deterministic iteration
}

// New creates an empty graph.
func New[L any]() *Graph[L] {
	return &Graph[L]{
		labels: make(map[Node]L),
		out:    make(map[Node]map[Node]struct{}),
		in:     make(map[Node]map[Node]struct{}),
	}
}

// Add inserts a vertex with the given label and returns its handle.
func (g *Graph[L]) Add(label L) Node {
	n := g.nextID
	g.nextID++
	g.labels[n] = label
	g.out[n] = make(map[Node]struct{})
	g.in[n] = make(map[Node]struct{})
	g.ordered = append(g.ordered, n)
	return n
}

// AddEdge inserts the dependency edge u → v (v depends on u). Self-edges
// are rejected.
func (g *Graph[L]) AddEdge(u, v Node) error {
	if u == v {
		return fmt.Errorf("graph: self-dependency on node %d", u)
	}
	if _, ok := g.labels[u]; !ok {
		return fmt.Errorf("graph: unknown node %d", u)
	}
	if _, ok := g.labels[v]; !ok {
		return fmt.Errorf("graph: unknown node %d", v)
	}
	g.out[u][v] = struct{}{}
	g.in[v][u] = struct{}{}
	return nil
}

// HasEdge reports whether the edge u → v exists.
func (g *Graph[L]) HasEdge(u, v Node) bool {
	_, ok := g.out[u][v]
	return ok
}

// Has reports whether n is a vertex of g (it was added and not removed).
func (g *Graph[L]) Has(n Node) bool {
	_, ok := g.labels[n]
	return ok
}

// Label returns the label of n.
func (g *Graph[L]) Label(n Node) L { return g.labels[n] }

// SetLabel replaces the label of n.
func (g *Graph[L]) SetLabel(n Node, label L) { g.labels[n] = label }

// Len returns the number of vertices.
func (g *Graph[L]) Len() int { return len(g.labels) }

// NumEdges returns the number of edges.
func (g *Graph[L]) NumEdges() int {
	n := 0
	for _, succ := range g.out {
		n += len(succ)
	}
	return n
}

// Nodes returns the vertices in insertion order.
func (g *Graph[L]) Nodes() []Node {
	out := make([]Node, 0, len(g.labels))
	for _, n := range g.ordered {
		if _, ok := g.labels[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// Succs returns the direct dependents of n, sorted.
func (g *Graph[L]) Succs(n Node) []Node { return sortedKeys(g.out[n]) }

// Preds returns the direct dependencies of n, sorted.
func (g *Graph[L]) Preds(n Node) []Node { return sortedKeys(g.in[n]) }

// InDegree returns the number of dependencies of n.
func (g *Graph[L]) InDegree(n Node) int { return len(g.in[n]) }

// OutDegree returns the number of dependents of n.
func (g *Graph[L]) OutDegree(n Node) int { return len(g.out[n]) }

// Remove deletes n and all incident edges.
func (g *Graph[L]) Remove(n Node) {
	for m := range g.out[n] {
		delete(g.in[m], n)
	}
	for m := range g.in[n] {
		delete(g.out[m], n)
	}
	delete(g.out, n)
	delete(g.in, n)
	delete(g.labels, n)
}

// Clone returns a deep copy sharing labels by value.
func (g *Graph[L]) Clone() *Graph[L] {
	c := New[L]()
	c.nextID = g.nextID
	c.ordered = append([]Node(nil), g.ordered...)
	for n, l := range g.labels {
		c.labels[n] = l
		c.out[n] = make(map[Node]struct{}, len(g.out[n]))
		c.in[n] = make(map[Node]struct{}, len(g.in[n]))
	}
	for n, succ := range g.out {
		for m := range succ {
			c.out[n][m] = struct{}{}
			c.in[m][n] = struct{}{}
		}
	}
	return c
}

// CycleError reports one directed cycle found where the caller required a
// DAG. It names the offending vertices — by their labels, not their
// internal node numbers — so a user can see which resources form the
// cycle; callers with richer labels can render their own names via
// CheckAcyclicNamed.
type CycleError struct {
	// Nodes are the vertices of the cycle in order; the edge from the last
	// back to the first closes it.
	Nodes []Node
	// Names are the rendered labels of Nodes, index-aligned.
	Names []string
}

func (e *CycleError) Error() string {
	closed := make([]string, 0, len(e.Names)+1)
	closed = append(closed, e.Names...)
	if len(e.Names) > 0 {
		closed = append(closed, e.Names[0])
	}
	return fmt.Sprintf("graph: dependency cycle: %s", strings.Join(closed, " -> "))
}

// CheckAcyclic returns nil when the graph has no directed cycle, or a
// *CycleError naming one cycle by vertex labels otherwise.
func (g *Graph[L]) CheckAcyclic() error {
	return g.CheckAcyclicNamed(func(l L) string { return fmt.Sprint(l) })
}

// CheckAcyclicNamed is CheckAcyclic with a caller-supplied label renderer,
// for graphs whose labels do not print usefully with fmt (e.g. pointers to
// compiled resources).
func (g *Graph[L]) CheckAcyclicNamed(name func(L) string) error {
	cycle := g.Cycle()
	if cycle == nil {
		return nil
	}
	names := make([]string, 0, len(cycle))
	for _, c := range cycle {
		names = append(names, name(g.labels[c]))
	}
	return &CycleError{Nodes: cycle, Names: names}
}

// Cycle returns one directed cycle as a node slice, or nil if acyclic.
func (g *Graph[L]) Cycle() []Node {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[Node]int, len(g.labels))
	parent := make(map[Node]Node)
	var cycle []Node
	var visit func(n Node) bool
	visit = func(n Node) bool {
		color[n] = gray
		for _, m := range g.Succs(n) {
			switch color[m] {
			case white:
				parent[m] = n
				if visit(m) {
					return true
				}
			case gray:
				cycle = []Node{m}
				for x := n; x != m; x = parent[x] {
					cycle = append(cycle, x)
				}
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[n] = black
		return false
	}
	for _, n := range g.Nodes() {
		if color[n] == white && visit(n) {
			return cycle
		}
	}
	return nil
}

// TopoSort returns one topological order (dependencies first). The graph
// must be acyclic.
func (g *Graph[L]) TopoSort() ([]Node, error) {
	indeg := make(map[Node]int, len(g.labels))
	for _, n := range g.Nodes() {
		indeg[n] = g.InDegree(n)
	}
	var ready []Node
	for _, n := range g.Nodes() {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	var order []Node
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, m := range g.Succs(n) {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	if len(order) != g.Len() {
		return nil, fmt.Errorf("graph: cyclic (sorted %d of %d nodes)", len(order), g.Len())
	}
	return order, nil
}

// Ancestors returns the transitive dependencies of n (excluding n).
func (g *Graph[L]) Ancestors(n Node) map[Node]struct{} {
	seen := make(map[Node]struct{})
	var visit func(Node)
	visit = func(m Node) {
		for p := range g.in[m] {
			if _, ok := seen[p]; !ok {
				seen[p] = struct{}{}
				visit(p)
			}
		}
	}
	visit(n)
	return seen
}

// Descendants returns the transitive dependents of n (excluding n).
func (g *Graph[L]) Descendants(n Node) map[Node]struct{} {
	seen := make(map[Node]struct{})
	var visit func(Node)
	visit = func(m Node) {
		for p := range g.out[m] {
			if _, ok := seen[p]; !ok {
				seen[p] = struct{}{}
				visit(p)
			}
		}
	}
	visit(n)
	return seen
}

// CountLinearizations counts the number of topological orders, stopping at
// limit (returns limit when there are at least that many). This quantifies
// the permutation blow-up of section 4.3.
func (g *Graph[L]) CountLinearizations(limit int) int {
	indeg := make(map[Node]int, len(g.labels))
	for _, n := range g.Nodes() {
		indeg[n] = g.InDegree(n)
	}
	count := 0
	var rec func(remaining int)
	rec = func(remaining int) {
		if count >= limit {
			return
		}
		if remaining == 0 {
			count++
			return
		}
		for _, n := range g.Nodes() {
			if indeg[n] != 0 {
				continue
			}
			indeg[n] = -1
			for _, m := range g.Succs(n) {
				indeg[m]--
			}
			rec(remaining - 1)
			indeg[n] = 0
			for _, m := range g.Succs(n) {
				indeg[m]++
			}
			if count >= limit {
				return
			}
		}
	}
	rec(g.Len())
	return count
}

// Linearizations enumerates topological orders, invoking fn for each until
// fn returns false or limit orders have been produced (limit ≤ 0 means
// unbounded). It reports whether enumeration ran to completion.
func (g *Graph[L]) Linearizations(limit int, fn func(order []Node) bool) bool {
	indeg := make(map[Node]int, len(g.labels))
	for _, n := range g.Nodes() {
		indeg[n] = g.InDegree(n)
	}
	produced := 0
	complete := true
	order := make([]Node, 0, g.Len())
	var rec func() bool
	rec = func() bool {
		if len(order) == g.Len() {
			produced++
			if !fn(append([]Node(nil), order...)) {
				complete = false
				return false
			}
			if limit > 0 && produced >= limit {
				complete = false
				return false
			}
			return true
		}
		for _, n := range g.Nodes() {
			if indeg[n] != 0 {
				continue
			}
			indeg[n] = -1
			for _, m := range g.Succs(n) {
				indeg[m]--
			}
			order = append(order, n)
			ok := rec()
			order = order[:len(order)-1]
			indeg[n] = 0
			for _, m := range g.Succs(n) {
				indeg[m]++
			}
			if !ok {
				return false
			}
		}
		return true
	}
	rec()
	return complete
}

// Dot renders the graph in Graphviz format using the provided label
// renderer.
func (g *Graph[L]) Dot(name func(L) string) string {
	var b strings.Builder
	b.WriteString("digraph G {\n")
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", n, name(g.Label(n)))
	}
	for _, n := range g.Nodes() {
		for _, m := range g.Succs(n) {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", n, m)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func sortedKeys(m map[Node]struct{}) []Node {
	out := make([]Node, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
