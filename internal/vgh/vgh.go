// Package vgh implements value generalization hierarchies (VGHs), the
// taxonomy structures that k-anonymization algorithms generalize over and
// that the blocking step of hybrid private record linkage reasons about.
//
// A categorical hierarchy is a rooted tree whose leaves are the concrete
// domain values of an attribute (e.g. "Masters", "9th") and whose internal
// nodes are generalizations ("Grad School", "Secondary", "ANY"). A
// continuous hierarchy generalizes numeric values into nested intervals,
// equi-width at the leaf level and widening by a fixed branching factor at
// every level above, as in the 4-level, 8-unit-leaf age hierarchy the paper
// adopts for the Adult data set.
//
// The central concept for blocking is the specialization set of a
// generalized value: the set of concrete values it may stand for. For a
// categorical node that is the set of leaves below it; for a continuous
// value it is an interval. Hierarchies here assign leaves contiguous
// indexes in depth-first order so a node's specialization set is always a
// dense index range, making set intersection and cardinality O(1).
package vgh

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Node is a single value in a categorical hierarchy. Leaves are concrete
// domain values; internal nodes are generalizations of their descendants.
type Node struct {
	// Value is the label of this node, unique within its hierarchy.
	Value string
	// Parent is nil for the root.
	Parent *Node
	// Children are ordered; leaf indexes follow this order.
	Children []*Node

	depth  int    // root = 0
	leafLo int    // first leaf index covered (inclusive)
	leafHi int    // last leaf index covered (exclusive)
	path   uint32 // see PathCode
}

// IsLeaf reports whether the node is a concrete domain value.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Depth returns the node's distance from the root (root = 0).
func (n *Node) Depth() int { return n.depth }

// LeafCount returns the size of the node's specialization set.
func (n *Node) LeafCount() int { return n.leafHi - n.leafLo }

// LeafRange returns the half-open range [lo, hi) of leaf indexes covered
// by the node. Leaf indexes are assigned in depth-first order, so the set
// of leaves under any node is contiguous.
func (n *Node) LeafRange() (lo, hi int) { return n.leafLo, n.leafHi }

// Covers reports whether other's specialization set is a subset of n's.
func (n *Node) Covers(other *Node) bool {
	return n.leafLo <= other.leafLo && other.leafHi <= n.leafHi
}

// Overlaps reports whether the specialization sets of n and other share at
// least one concrete value. In a tree this happens exactly when one node is
// an ancestor of (or equal to) the other.
func (n *Node) Overlaps(other *Node) bool {
	return n.leafLo < other.leafHi && other.leafLo < n.leafHi
}

// IntersectionSize returns the number of concrete values shared by the
// specialization sets of n and other.
func (n *Node) IntersectionSize(other *Node) int {
	lo := max(n.leafLo, other.leafLo)
	hi := min(n.leafHi, other.leafHi)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func (n *Node) String() string { return n.Value }

// PathCode returns the node's path from the root as one word: for every
// depth d from 1 to n.Depth(), the ordinal among its parent's children of
// n's depth-d ancestor (n itself at its own depth), in the bit field
// Hierarchy.Digit(d) reads. Fields below n are zero, so the code names n
// only together with its depth.
func (n *Node) PathCode() uint32 { return n.path }

// PathDigit is one depth's bit field of a path code.
type PathDigit struct {
	Shift uint8
	Mask  uint32
}

// Of returns the child ordinal the code holds at the digit's depth.
func (p PathDigit) Of(code uint32) uint32 { return code >> p.Shift & p.Mask }

// Hierarchy is an immutable categorical value generalization hierarchy.
type Hierarchy struct {
	name   string
	root   *Node
	byName map[string]*Node
	leaves []*Node     // in leaf-index order
	height int         // max depth of any leaf
	digits []PathDigit // by depth; digits[0] is the root's empty field
}

// Name returns the attribute name the hierarchy describes.
func (h *Hierarchy) Name() string { return h.name }

// Root returns the most general value (typically "ANY").
func (h *Hierarchy) Root() *Node { return h.root }

// Height returns the maximum leaf depth; a flat domain under a single root
// has height 1.
func (h *Hierarchy) Height() int { return h.height }

// NumLeaves returns the size of the concrete domain.
func (h *Hierarchy) NumLeaves() int { return len(h.leaves) }

// Leaves returns the concrete domain values in leaf-index order. The
// returned slice must not be modified.
func (h *Hierarchy) Leaves() []*Node { return h.leaves }

// Leaf returns the leaf node at the given index.
func (h *Hierarchy) Leaf(i int) *Node { return h.leaves[i] }

// Lookup returns the node with the given label, or nil if absent.
func (h *Hierarchy) Lookup(value string) *Node { return h.byName[value] }

// MustLookup is Lookup that panics on unknown values. It is intended for
// static hierarchies and test fixtures.
func (h *Hierarchy) MustLookup(value string) *Node {
	n := h.byName[value]
	if n == nil {
		panic(fmt.Sprintf("vgh: hierarchy %q has no value %q", h.name, value))
	}
	return n
}

// LeafValues returns the labels of all leaves in index order.
func (h *Hierarchy) LeafValues() []string {
	out := make([]string, len(h.leaves))
	for i, n := range h.leaves {
		out[i] = n.Value
	}
	return out
}

// GeneralizeToDepth returns the ancestor of n at the requested depth. If n
// is already at or above that depth it is returned unchanged. Depth 0 is
// the root.
func (h *Hierarchy) GeneralizeToDepth(n *Node, depth int) *Node {
	for n.depth > depth {
		n = n.Parent
	}
	return n
}

// Digit returns the bit field of path codes that holds the child ordinal
// at depth (1 ≤ depth ≤ Height()): for a node at least that deep,
// Digit(depth).Of(n.PathCode()) is the position of
// GeneralizeToDepth(n, depth) among its parent's Children.
func (h *Hierarchy) Digit(depth int) PathDigit { return h.digits[depth] }

// Ancestors returns the chain from n's parent up to the root, nearest
// first. A root yields an empty slice.
func (h *Hierarchy) Ancestors(n *Node) []*Node {
	var out []*Node
	for p := n.Parent; p != nil; p = p.Parent {
		out = append(out, p)
	}
	return out
}

// Builder incrementally constructs a Hierarchy. Nodes may be added in any
// order as long as every parent is added before its children.
type Builder struct {
	name   string
	root   *Node
	byName map[string]*Node
	err    error
}

// NewBuilder starts a hierarchy for the named attribute with the given
// root label (conventionally "ANY").
func NewBuilder(name, rootValue string) *Builder {
	root := &Node{Value: rootValue}
	return &Builder{
		name:   name,
		root:   root,
		byName: map[string]*Node{rootValue: root},
	}
}

// Add inserts value as a child of parent. Errors are deferred to Build so
// call sites can chain without per-call checks.
func (b *Builder) Add(parent, value string) *Builder {
	if b.err != nil {
		return b
	}
	p, ok := b.byName[parent]
	if !ok {
		b.err = fmt.Errorf("vgh: parent %q not defined before child %q", parent, value)
		return b
	}
	if _, dup := b.byName[value]; dup {
		b.err = fmt.Errorf("vgh: duplicate value %q", value)
		return b
	}
	n := &Node{Value: value, Parent: p, depth: p.depth + 1}
	p.Children = append(p.Children, n)
	b.byName[value] = n
	return b
}

// AddAll inserts several children under one parent.
func (b *Builder) AddAll(parent string, values ...string) *Builder {
	for _, v := range values {
		b.Add(parent, v)
	}
	return b
}

// Build finalizes the hierarchy, assigning contiguous leaf indexes.
func (b *Builder) Build() (*Hierarchy, error) {
	if b.err != nil {
		return nil, b.err
	}
	h := &Hierarchy{name: b.name, root: b.root, byName: b.byName}
	h.index(b.root)
	if len(h.leaves) == 0 {
		return nil, fmt.Errorf("vgh: hierarchy %q has no leaves", b.name)
	}
	if err := h.assignPaths(); err != nil {
		return nil, err
	}
	return h, nil
}

// assignPaths lays out the path code's digits — depth d's field as wide as
// the widest child list at depth d-1 needs, shallow depths in the low bits,
// 32 bits in all — and gives every node its code.
func (h *Hierarchy) assignPaths() error {
	fanout := make([]int, h.height+1) // fanout[d]: most children of a node at depth d-1
	var widest func(n *Node)
	widest = func(n *Node) {
		for _, c := range n.Children {
			fanout[c.depth] = max(fanout[c.depth], len(n.Children))
			widest(c)
		}
	}
	widest(h.root)
	h.digits = make([]PathDigit, h.height+1)
	shift := 0
	for d := 1; d <= h.height; d++ {
		w := bits.Len(uint(fanout[d] - 1))
		if shift+w > 32 {
			return fmt.Errorf("vgh: hierarchy %q needs more than 32 bits to number its paths", h.name)
		}
		h.digits[d] = PathDigit{Shift: uint8(shift), Mask: uint32(1)<<w - 1}
		shift += w
	}
	var code func(n *Node)
	code = func(n *Node) {
		for i, c := range n.Children {
			c.path = n.path | uint32(i)<<h.digits[c.depth].Shift
			code(c)
		}
	}
	code(h.root)
	return nil
}

// MustBuild is Build that panics on error, for static hierarchy literals.
func (b *Builder) MustBuild() *Hierarchy {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

// index assigns leaf ranges and records leaves in DFS order.
func (h *Hierarchy) index(n *Node) {
	if n.IsLeaf() {
		n.leafLo = len(h.leaves)
		n.leafHi = n.leafLo + 1
		h.leaves = append(h.leaves, n)
		if n.depth > h.height {
			h.height = n.depth
		}
		return
	}
	n.leafLo = len(h.leaves)
	for _, c := range n.Children {
		h.index(c)
	}
	n.leafHi = len(h.leaves)
}

// Flat builds a height-1 hierarchy: every domain value is a direct child
// of the root. Useful for attributes without a meaningful taxonomy.
func Flat(name, rootValue string, values ...string) *Hierarchy {
	b := NewBuilder(name, rootValue)
	b.AddAll(rootValue, values...)
	return b.MustBuild()
}

// Dump renders the hierarchy as the indented text format accepted by
// Parse, one node per line, children indented two spaces beyond parents.
func (h *Hierarchy) Dump() string {
	var sb strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Value)
		sb.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(h.root, 0)
	return sb.String()
}

// Validate checks internal invariants: leaf ranges are contiguous, depths
// are consistent, and every name maps to a reachable node. It exists for
// tests and for hierarchies deserialized from external sources.
func (h *Hierarchy) Validate() error {
	seen := 0
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.IsLeaf() {
			if n.leafLo != seen || n.leafHi != seen+1 {
				return fmt.Errorf("vgh: leaf %q has range [%d,%d), want [%d,%d)", n.Value, n.leafLo, n.leafHi, seen, seen+1)
			}
			seen++
			return nil
		}
		lo := seen
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("vgh: node %q has wrong parent link", c.Value)
			}
			if c.depth != n.depth+1 {
				return fmt.Errorf("vgh: node %q depth %d, want %d", c.Value, c.depth, n.depth+1)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		if n.leafLo != lo || n.leafHi != seen {
			return fmt.Errorf("vgh: node %q has range [%d,%d), want [%d,%d)", n.Value, n.leafLo, n.leafHi, lo, seen)
		}
		return nil
	}
	if err := walk(h.root); err != nil {
		return err
	}
	if seen != len(h.leaves) {
		return fmt.Errorf("vgh: %d leaves indexed, %d recorded", seen, len(h.leaves))
	}
	names := make([]string, 0, len(h.byName))
	for name, n := range h.byName {
		if n.Value != name {
			return fmt.Errorf("vgh: name table maps %q to node %q", name, n.Value)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return nil
}
