package main

// The reference kernel. Raw nanoseconds on the build host (2 vCPUs, 2 MiB
// private L2, an L3 shared with other tenants) move 10-30 % within minutes,
// because neighbours change what a cache miss costs. Every timing is
// therefore reported relative to work the benchmark owns and runs inside the
// same trial: after each block of map operations the worker makes a block of
// calls on a plain single-threaded binary search tree with as many keys as
// the map holds, built in the same shuffled order. A refcall is the tree's
// call of the same class as the operation measured: a lookup of a random key
// for Insert, Delete, Contains, Get and GetAt, an in-order scan of RQLen/2
// keys (what a range of RQLen holds when half the keys are present) for
// RangeQuery and RangeQueryAt. A lookup mixes compare-and-branch work on the
// cached upper levels with dependent misses on the lower ones and a scan is
// nearly all misses, as the maps' own are, so each slows down when its class
// of operation does.

// refNode is one cache line.
type refNode struct {
	key         uint64
	left, right uint32 // indices into nodes; 0 is nil (node 0 is unused)
	_           [48]byte
}

// refTree is the reference structure. It is read-only after construction;
// each worker brings its own generator.
type refTree struct {
	nodes []refNode
	n     uint64
}

// newRefTree inserts the keys [0, n) in seeded shuffled order, so nodes that
// are close in key order are far apart in memory, as in a heap filled by
// random inserts.
func newRefTree(n int, seed uint64) *refTree {
	t := &refTree{nodes: make([]refNode, n+1), n: uint64(n)}
	order := make([]uint64, n)
	for i := range order {
		order[i] = uint64(i)
	}
	g := newRNG(seed, streamRing)
	for i := n - 1; i > 0; i-- {
		j := g.next() % uint64(i+1)
		order[i], order[j] = order[j], order[i]
	}
	for i, k := range order {
		idx := uint32(i + 1)
		t.nodes[idx].key = k
		if idx == 1 {
			continue
		}
		for p := uint32(1); ; {
			next := &t.nodes[p].right
			if k < t.nodes[p].key {
				next = &t.nodes[p].left
			}
			if *next == 0 {
				*next = idx
				break
			}
			p = *next
		}
	}
	return t
}

// scans collects calls random ranges of width keys, in order with an
// explicit stack as a plain tree would, and returns the number of keys seen.
func (t *refTree) scans(g *rng, calls int, width uint64) uint32 {
	var seen uint32
	nodes := t.nodes
	var stack [64]uint32
	for i := 0; i < calls; i++ {
		lo := g.next() >> 8 % t.n
		hi := lo + width - 1
		top := 0
		p := uint32(1)
		for p != 0 || top > 0 {
			for p != 0 { // descend left while the subtree can hold keys >= lo
				stack[top] = p
				top++
				if nodes[p].key <= lo {
					break
				}
				p = nodes[p].left
			}
			top--
			p = stack[top]
			k := nodes[p].key
			if k > hi {
				break
			}
			if k >= lo {
				seen++
			}
			p = nodes[p].right
		}
	}
	return seen
}

// refcalls looks up calls random keys and returns a value that depends on
// every lookup.
func (t *refTree) refcalls(g *rng, calls int) uint32 {
	var found uint32
	nodes := t.nodes
	for i := 0; i < calls; i++ {
		k := g.next() >> 8 % t.n
		p := uint32(1)
		for p != 0 && nodes[p].key != k {
			if k < nodes[p].key {
				p = nodes[p].left
			} else {
				p = nodes[p].right
			}
		}
		found += p
	}
	return found
}
