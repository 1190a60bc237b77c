// Package citrus implements the Citrus tree of Arbel and Attiya
// ("Concurrent updates with RCU: search tree as an example", PODC 2014):
// an internal binary search tree with per-node locks whose searches run
// lock-free inside RCU read-side sections. Deleting a node with two
// children replaces it with a locked copy of its successor, waits out an
// RCU grace period so in-flight searches keep their path, and only then
// unlinks the successor.
//
// The algorithm is written once, in tree.go, over a technique: what the
// three range-query augmentations the paper evaluates on Citrus (Figures
// 3 and 4) differ in — the edges, how they are read and written — and
// nothing else. Each is one short file and one instantiation:
//
//	VcasTree   — child pointers are vCAS objects (range queries advance
//	             the timestamp; updates label versions).        vcas.go
//	BundleTree — each child link carries a bundle (updates advance the
//	             timestamp; range queries only read it).        bundle.go
//	EBRTree    — nodes carry insertion/deletion labels assigned under
//	             EBR-RQ's global readers-writer lock (or DCSS), and
//	             range queries additionally scan the EBR limbo lists.
//	                                                            ebr.go
//
// Every node carries a tag, after the original algorithm's per-child
// tags. An insert finds its slot — a nil child of prev — inside an RCU
// read-side section and validates it only after locking prev, and "still
// nil" does not mean "still the place for this key": in between, the key
// may have been inserted into that very slot and then relocated upwards
// as the successor copy of a two-children delete, which leaves the slot
// nil again with the key living elsewhere. Without the tag the stale
// insert would validate and link a second node for the key. So every
// write that sets one of a node's child links back to nil bumps the
// node's tag under its lock, the search reads the tag inside its
// read-side section (the relocating delete's grace period keeps the bump
// after it), and insert validation requires the tag unchanged. One tag
// serves both links: it fits the padding the node already had, and a
// bump for the other side costs a stale insert one retry.
//
// Two-child deletion briefly exposes the successor's key both at its old
// node and at the replacement copy; snapshot traversals deduplicate by
// key, which is sound because keys are unique in the abstract state.
//
// A note on elemental-vs-bulk linearization in the Bundle variant:
// contains consults the raw pointers while range queries consult bundle
// labels, and the two are fixed a few instructions apart inside the
// update's critical section — the timestamp first, then the raw write
// (bundle.go, publish). A contains that runs in that window orders against
// concurrent range queries with the usual in-flight-operation freedom;
// vCAS avoids even that window because its reads label versions before
// returning (the property §IV credits to helping), which is one more
// reason the paper finds vCAS the cleanest fit for hardware timestamps.
package citrus

// Keys are uint64 with the top value reserved for the root sentinel.
const (
	sentinelKey = ^uint64(0)
	// MaxKey is the largest insertable key.
	MaxKey = ^uint64(0) - 1
)

// dirOf returns which child of a node with key nodeKey leads to key.
func dirOf(key, nodeKey uint64) int {
	if key < nodeKey {
		return 0
	}
	return 1
}
