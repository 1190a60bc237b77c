package main

// The benchmark's own input generator. It imports nothing from
// internal/bench or cmd/rqbench, so the inputs do not move when those
// drivers change: the seed is an argument and the maps receive only the
// operations generated here.

// rng is xorshift64* (Vigna). One per worker per trial.
type rng struct{ s uint64 }

// Streams keep the generators of one seed apart.
const (
	streamPrefill = 1
	streamRing    = 2
	streamTape    = 3
)

// newRNG derives a generator from the run seed and a stream path
// (stream kind, round, worker) through splitmix64.
func newRNG(seed uint64, path ...uint64) rng {
	x := seed
	for _, p := range path {
		x = splitmix(x ^ p*0x9e3779b97f4a7c15)
	}
	if x = splitmix(x); x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	return rng{s: x}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 2685821657736338717
}

// prefillKeys returns half of [0, keyRange) in seeded shuffled order.
func prefillKeys(seed, keyRange uint64) []uint64 {
	keys := make([]uint64, keyRange)
	for i := range keys {
		keys[i] = uint64(i)
	}
	g := newRNG(seed, streamPrefill)
	for i := len(keys) - 1; i > 0; i-- {
		j := g.next() % uint64(i+1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys[:keyRange/2]
}

// opKind is an operation class of the tape.
type opKind uint8

const (
	opUpdate opKind = iota // 50 % Insert, 50 % Delete
	opRQ                   // RangeQuery [key, key+RQLen-1]
	opGet                  // Contains (Get on full-stack)
	opGetAt                // GetAt a past stamp (full-stack)
	opRQAt                 // RangeQueryAt a past stamp (full-stack)
	numKinds
)

var kindNames = [numKinds]string{"update", "rq", "contains", "getat", "rqat"}

// mix is the share of each class in percent; the shares sum to 100.
type mix [numKinds]int

// decode turns one generator word into an operation: the class from the
// word's upper bits, the uniform key from its middle bits, insert or
// delete from its top bit.
func (m *mix) decode(r, keyRange uint64) (kind opKind, key uint64, insert bool) {
	p := int(r << 1 >> 42 % 100)
	for kind = opUpdate; kind < numKinds-1; kind++ {
		if p < m[kind] {
			break
		}
		p -= m[kind]
	}
	return kind, r >> 8 % keyRange, r>>63 == 1
}
