package tscds

import "fmt"

// Shape drains m and walks every part of it (inner.Shape): the keys, the
// deepest part's depth, and the first broken property, named with its
// part. Quiescent use only.
func Shape(m Map) (n, depth int, err error) {
	w, ok := m.(*wrap)
	if s, sharded := m.(*ShardedMap); sharded {
		w, ok = &s.wrap, true
	}
	if !ok {
		return 0, 0, fmt.Errorf("tscds: %T is not a map New or NewSharded built", m)
	}
	w.Drain()
	for i, p := range w.parts {
		k, d, e := p.Shape()
		n, depth = n+k, max(depth, d)
		if e != nil && err == nil {
			err = fmt.Errorf("part %d of %d: %w", i, len(w.parts), e)
		}
	}
	return n, depth, err
}
