// Package hier implements hierarchical link sharing in the style of H-FSC
// (Stoica, Zhang & Ng [23]) — the §4.1/§5.2 comparator class the paper
// cites at 7–10 µs per packet on a 200 MHz Pentium. The service-curve
// machinery of full H-FSC is simplified to hierarchical weighted fair
// queuing: an arbitrary class tree whose interior nodes divide bandwidth
// among their children by weight, with WFQ virtual-time accounting at each
// level.
//
// It serves three purposes in the reproduction:
//
//   - a software baseline for the §4.1 latency bench (hierarchical
//     schedulers cost a tree walk per decision);
//   - link-sharing semantics to contrast with ShareStreams' flat
//     stream-slot model plus streamlet aggregation (which buys hierarchy's
//     common case — agency over groups of flows — with processor-side
//     round robin instead of tree arithmetic);
//   - a second reference implementation of fair-share allocation for
//     differential testing against package fairqueue.
package hier

import (
	"fmt"
)

// Class is a node in the link-sharing tree. Leaves own packet queues;
// interior nodes distribute service among their children.
type Class struct {
	name     string
	weight   float64
	parent   *Class
	children []*Class

	// WFQ state at this node's level: the node's finish tag within its
	// parent, advanced as the subtree transmits bytes, and the node's own
	// virtual clock (the finish tag of the child most recently selected),
	// used to re-anchor children returning from idle so they cannot burst
	// on stale credit.
	finish float64
	vtime  float64

	// Leaf state.
	queue   []Packet
	qHead   int
	backlog int // backlogged packets in this subtree
}

// Packet is one queued frame.
type Packet struct {
	Class   *Class
	Size    int
	Arrival uint64
}

// Tree is a hierarchical link-sharing scheduler.
type Tree struct {
	root    *Class
	classes map[string]*Class
	backlog int
}

// New builds a tree with a root class.
func New() *Tree {
	root := &Class{name: "root", weight: 1}
	return &Tree{root: root, classes: map[string]*Class{"root": root}}
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// Leaf reports whether the class has no children.
func (c *Class) Leaf() bool { return len(c.children) == 0 }

// AddClass creates a child class under parent with the given weight. A
// class that has queued packets cannot become interior.
func (t *Tree) AddClass(parent, name string, weight float64) (*Class, error) {
	p, ok := t.classes[parent]
	if !ok {
		return nil, fmt.Errorf("hier: unknown parent class %q", parent)
	}
	if weight <= 0 {
		return nil, fmt.Errorf("hier: class %q weight %v", name, weight)
	}
	if _, dup := t.classes[name]; dup {
		return nil, fmt.Errorf("hier: duplicate class %q", name)
	}
	if len(p.queue) > p.qHead {
		return nil, fmt.Errorf("hier: class %q already queues packets; cannot add children", parent)
	}
	c := &Class{name: name, weight: weight, parent: p}
	p.children = append(p.children, c)
	t.classes[name] = c
	return c, nil
}

// Enqueue queues a packet at a leaf class.
func (t *Tree) Enqueue(class string, size int, arrival uint64) error {
	c, ok := t.classes[class]
	if !ok {
		return fmt.Errorf("hier: unknown class %q", class)
	}
	if !c.Leaf() {
		return fmt.Errorf("hier: class %q is interior", class)
	}
	if size <= 0 {
		return fmt.Errorf("hier: packet size %d", size)
	}
	c.queue = append(c.queue, Packet{Class: c, Size: size, Arrival: arrival})
	for n := c; n != nil; n = n.parent {
		if n.backlog == 0 && n.parent != nil && n.parent.vtime > n.finish {
			// Returning from idle: re-anchor at the parent's virtual
			// time so the idle period is forfeited, not banked.
			n.finish = n.parent.vtime
		}
		n.backlog++
	}
	t.backlog++
	return nil
}

// Backlogged returns the queued packet count.
func (t *Tree) Backlogged() int { return t.backlog }

// Dequeue picks the next packet: at each level, the backlogged child with
// the least finish tag wins; the winning leaf's head transmits and finish
// tags along the path advance by size/weight (normalized per level).
func (t *Tree) Dequeue() (Packet, bool) {
	if t.backlog == 0 {
		return Packet{}, false
	}
	n := t.root
	for !n.Leaf() {
		var best *Class
		for _, ch := range n.children {
			if ch.backlog == 0 {
				continue
			}
			if best == nil || ch.finish < best.finish {
				best = ch
			}
		}
		if best == nil {
			// Inconsistent backlog accounting would loop forever;
			// surface it loudly.
			panic("hier: interior backlog with no backlogged child")
		}
		n.vtime = best.finish
		n = best
	}
	p := n.queue[n.qHead]
	n.qHead++
	if n.qHead == len(n.queue) {
		n.queue = n.queue[:0]
		n.qHead = 0
	}
	for c := n; c != nil; c = c.parent {
		c.backlog--
		if c.parent != nil {
			c.finish += float64(p.Size) / c.weight
		}
	}
	t.backlog--
	return p, true
}

// Walks returns the number of tree levels a decision traverses for the
// deepest leaf — the §4.1 cost argument against hierarchical software
// schedulers at wire speed.
func (t *Tree) Walks() int {
	depth := 0
	var rec func(c *Class, d int)
	rec = func(c *Class, d int) {
		if d > depth {
			depth = d
		}
		for _, ch := range c.children {
			rec(ch, d+1)
		}
	}
	rec(t.root, 0)
	return depth
}
