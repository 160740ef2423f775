package dpblock

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// The release mechanism is the one-sided geometric/Laplace padding used
// by DP blocking schemes (He et al., "Composing Differential Privacy and
// Secure Computation"): each bin's true count n is published as
//
//	ñ = n + max(0, round(Lap(1/ε) + μ)),   μ = ln(1/(2δ)) / ε
//
// Adding or removing one record moves one bin count by 1 (sensitivity 1
// per bin), and because every record lands in exactly one bin the whole
// histogram release satisfies ε-DP by parallel composition. The shift μ
// places the Laplace mass almost entirely above zero, so truncating at
// zero — which keeps the padding non-negative and therefore never hides
// a real member — fails with probability at most δ; the release is
// (ε, δ)-DP overall.
//
// Draws are keyed by (seed, bin key) through SHA-256 rather than a
// stateful PRNG, so the noise for a bin does not depend on map iteration
// order, class indexes, or how many other bins exist. Two holders with
// the same seed and the same bin still draw independent-looking noise
// when their domain separation strings differ (HolderSeed: every shape
// gives the two holders distinct seeds).

// noiseDomain versions the draw derivation; bump if the mapping from
// (seed, key) to noise ever changes so journals cannot silently mix.
const noiseDomain = "pprl-dpblock-v1"

// HolderSeed derives the noise seed one holder actually draws from,
// domain-separating the configured seed by role ("alice", "bob"). Two
// holders that both leave their seed at the default (or happen to pick
// the same value) would otherwise draw identical noise for identical bin
// keys, correlating the two releases and weakening the composed
// guarantee; hashing the role in makes the draws independent regardless
// of what the operators configured. Session holders, core.Link and live
// datasets all derive their seeds here, so one seed gives one release on
// every shape.
func HolderSeed(seed int64, role string) int64 {
	h := sha256.New()
	h.Write([]byte(noiseDomain))
	h.Write([]byte{2})
	h.Write([]byte(role))
	var sb [8]byte
	binary.BigEndian.PutUint64(sb[:], uint64(seed))
	h.Write(sb[:])
	return int64(binary.BigEndian.Uint64(h.Sum(nil)[:8]))
}

// Noise returns the deterministic padding for one bin: non-negative,
// integral, and a pure function of (seed, binKey, ε, δ). The seed must
// stay private to the holder: a recipient who learns it can recompute
// every bin's padding and subtract it, recovering the true counts the
// release is supposed to hide (anonymize.WriteView therefore never
// serializes it).
func Noise(seed int64, binKey string, epsilon, delta float64) int64 {
	u := uniform(seed, binKey)
	b := 1 / epsilon
	// Inverse-CDF sample of Laplace(0, b).
	var x float64
	if u < 0.5 {
		x = b * math.Log(2*u)
	} else {
		x = -b * math.Log(2*(1-u))
	}
	shift := math.Log(1/(2*delta)) / epsilon
	n := int64(math.Round(x + shift))
	if n < 0 {
		n = 0
	}
	return n
}

// uniform hashes (seed, key) to a float in the open interval (0, 1).
func uniform(seed int64, key string) float64 {
	h := sha256.New()
	var sb [8]byte
	binary.BigEndian.PutUint64(sb[:], uint64(seed))
	h.Write(sb[:])
	h.Write([]byte(noiseDomain))
	h.Write([]byte{0})
	h.Write([]byte(key))
	sum := h.Sum(nil)
	v := binary.BigEndian.Uint64(sum[:8])
	// 53 mantissa bits, offset by half a step: never exactly 0 or 1, so
	// the log terms above are always finite.
	return (float64(v>>11) + 0.5) / (1 << 53)
}
