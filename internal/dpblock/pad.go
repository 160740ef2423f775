package dpblock

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"pprl/internal/anonymize"
)

// Padding turns the noised counts from an accounting fiction into the
// shape of the release itself. Publish attaches ñ_i = n_i + noise to
// every class, but a view whose member lists still hold exactly the n_i
// true handles reveals the true counts to anyone it is sent to — the
// Laplace noise would hide nothing. Pad therefore stretches each class
// to its published size with dummy handles before the view leaves the
// holder:
//
//   - the handle space is renumbered: all Σ ñ_i slots are assigned by a
//     uniform permutation keyed by the holder's private seed, so a
//     handle's numeric value carries no information about whether it
//     names a record or padding;
//   - each class's member list is sorted after assignment, so the
//     position of a handle within the serialized list carries none
//     either;
//   - the holder keeps the handle→record mapping (PadMap) private, the
//     same way it keeps the noise seed private.
//
// Everything downstream of the exchange — blocking, the tier, the SMC
// loop — addresses records by handle, and dummy handles get encodings
// that can never produce a match (dummy.go), so whoever walks the padded
// release pays for dummy comparisons at unit price without ever learning
// which they were.

// PadMap is the holder-private record of a padding pass: which published
// handle names which record, and which are dummies.
type PadMap struct {
	// RecordOf maps a published handle to its record index in the
	// holder's dataset, or -1 for a dummy slot.
	RecordOf []int
	// HandleOf maps a record index to its published handle.
	HandleOf []int
}

// Dummies returns the number of dummy handles the padding introduced.
func (m *PadMap) Dummies() int64 { return int64(len(m.RecordOf) - len(m.HandleOf)) }

// Pad rewrites a published view in place so every class's member list
// has exactly its noised count of handles, and returns the private
// handle mapping. It must run after Publish and before the view is
// serialized; WriteView refuses DP views whose member lists disagree
// with the published counts. The permutation is a deterministic function
// of the release seed, so a resumed session reproduces the identical
// padded view (the journal digests its bytes).
func Pad(res *anonymize.Result) (*PadMap, error) {
	if res.DP == nil {
		return nil, fmt.Errorf("dpblock: cannot pad a view without a DP release")
	}
	if len(res.DP.NoisedCounts) != len(res.Classes) {
		return nil, fmt.Errorf("dpblock: %d noised counts for %d classes",
			len(res.DP.NoisedCounts), len(res.Classes))
	}
	var total int64
	for i, c := range res.Classes {
		n := res.DP.NoisedCounts[i]
		if n < int64(c.Size()) {
			return nil, fmt.Errorf("dpblock: class %d noised count %d below true size %d", i, n, c.Size())
		}
		total += n
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("dpblock: padded release would span %d handles", total)
	}
	n := int(total)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng := NewPRNG(res.DP.Seed, "pad")
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	pm := &PadMap{RecordOf: make([]int, n), HandleOf: make([]int, len(res.ClassOf))}
	for i := range pm.RecordOf {
		pm.RecordOf[i] = -1
	}
	classOf := make([]int, n)
	off := 0
	for ci := range res.Classes {
		c := &res.Classes[ci]
		handles := perm[off : off+int(res.DP.NoisedCounts[ci])]
		off += len(handles)
		for k, m := range c.Members {
			pm.RecordOf[handles[k]] = m
			pm.HandleOf[m] = handles[k]
		}
		members := append([]int(nil), handles...)
		sort.Ints(members)
		c.Members = members
		for _, h := range members {
			classOf[h] = ci
		}
	}
	res.ClassOf = classOf
	return pm, nil
}

// PRNG is a deterministic keyed generator (SHA-256 in counter mode) for
// the draws that must be reproducible across a resumed session yet
// unpredictable to anyone without the seed: the padding permutation. It
// is deliberately independent of math/rand so the byte-exact view a
// journal digest pins cannot drift with the standard library.
type PRNG struct {
	key [sha256.Size]byte
	ctr uint64
	buf [sha256.Size]byte
	off int
}

// NewPRNG keys a generator from the holder's seed and a domain tag;
// distinct tags yield independent streams from the same seed.
func NewPRNG(seed int64, domain string) *PRNG {
	h := sha256.New()
	h.Write([]byte(noiseDomain))
	h.Write([]byte{1})
	h.Write([]byte(domain))
	h.Write([]byte{0})
	var sb [8]byte
	binary.BigEndian.PutUint64(sb[:], uint64(seed))
	h.Write(sb[:])
	p := &PRNG{off: sha256.Size}
	copy(p.key[:], h.Sum(nil))
	return p
}

// Uint64 returns the next 64 bits of the stream.
func (p *PRNG) Uint64() uint64 {
	if p.off+8 > len(p.buf) {
		h := sha256.New()
		h.Write(p.key[:])
		var cb [8]byte
		binary.BigEndian.PutUint64(cb[:], p.ctr)
		h.Write(cb[:])
		p.ctr++
		copy(p.buf[:], h.Sum(nil))
		p.off = 0
	}
	v := binary.BigEndian.Uint64(p.buf[p.off:])
	p.off += 8
	return v
}

// Intn returns a uniform int in [0, n), rejection-sampled so the
// permutation has no modulo bias.
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("dpblock: Intn bound must be positive")
	}
	un := uint64(n)
	min := -un % un // 2^64 mod n: values below it would bias the draw
	for {
		if v := p.Uint64(); v >= min {
			return int(v % un)
		}
	}
}
