package bloom

import (
	"bytes"
	"testing"
)

// FuzzDiceTier fuzzes CLK inputs and tier thresholds together, asserting
// the algebra the tier engine relies on: the encoder is deterministic,
// Dice is symmetric and confined to [0, 1], and TierLow accepts exactly the thresholds in [0, 1), filling the zero
// one with the default.
func FuzzDiceTier(f *testing.F) {
	f.Add("smith", "smyth", 0.9, 0.5, uint16(512), uint8(8), uint8(2))
	f.Add("", "jones", 0.95, 0.0, uint16(64), uint8(1), uint8(1))
	f.Add("a", "a", 0.0, 0.0, uint16(8), uint8(30), uint8(3))
	f.Add("ünïcode", "unicode", 1.0, 1.0, uint16(1000), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, sa, sb string, high, low float64, m uint16, k, q uint8) {
		// Clamp the fuzzed parameters into the encoder's valid domain;
		// NewEncoder's rejection of the rest has its own unit tests.
		enc, err := NewEncoder(int(m%2048)+8, int(k%64)+1, int(q%8)+1, []byte("fuzz-key"))
		if err != nil {
			t.Fatalf("clamped parameters rejected: %v", err)
		}
		fa, fb := enc.Encode(sa), enc.Encode(sb)

		// Determinism: re-encoding the same input yields identical bytes.
		if !bytes.Equal(fa.Marshal(), enc.Encode(sa).Marshal()) {
			t.Fatalf("encoder not deterministic for %q", sa)
		}

		// Dice symmetry and range.
		ab, ba := fa.Dice(fb), fb.Dice(fa)
		if ab != ba {
			t.Fatalf("Dice not symmetric: %v vs %v", ab, ba)
		}
		if ab < 0 || ab > 1 {
			t.Fatalf("Dice out of range: %v", ab)
		}
		if sa == sb && fa.Ones() > 0 && ab != 1 {
			t.Fatalf("identical non-empty inputs: dice=%v, want 1", ab)
		}

		// The one threshold: any fuzzed float64 — NaN and ±Inf included —
		// is accepted exactly when it lies in [0, 1), zero becomes the
		// default, and an accepted value is left as given.
		for _, low := range []float64{low, high} {
			got := low
			err := TierLow(&got)
			switch inRange := low >= 0 && low < 1; {
			case inRange != (err == nil):
				t.Fatalf("TierLow(%v): err = %v, in [0, 1) = %v", low, err, inRange)
			case low == 0 && got != DefaultTierLow:
				t.Fatalf("TierLow(0) filled %v, want the default %v", got, DefaultTierLow)
			case inRange && low != 0 && got != low:
				t.Fatalf("TierLow(%v) rewrote an accepted threshold to %v", low, got)
			}
		}
	})
}
