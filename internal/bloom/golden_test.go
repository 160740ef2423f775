package bloom

import (
	"encoding/hex"
	"math"
	"testing"
)

// TestGoldenVectors pins the exact encoding bytes of fixed (m, k, q, key)
// inputs. The CLK layout is a wire contract: both holders encode
// independently and the matcher compares their filters bit-for-bit, so
// any drift in the gram padding, the keyed digest, the double-hashing
// probe, or the word serialization silently corrupts every Dice score.
// These vectors fail that drift loudly. Regenerate them only on a
// deliberate, versioned format change.
func TestGoldenVectors(t *testing.T) {
	enc, err := NewEncoder(64, 4, 2, []byte("golden-key"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		fields []string
		ones   int
		hex    string
	}{
		{"single-field", []string{"smith"}, 21, "2a5988c128028e60"},
		{"other-value", []string{"jones"}, 20, "62b450883b204081"},
		{"composite", []string{"smith", "1985"}, 38, "2bdfdbc12b878f75"},
		{"empty-field", []string{""}, 0, "0000000000000000"},
		// Gram extraction lowercases, so case must not change the bytes.
		{"case-folded", []string{"SMITH"}, 21, "2a5988c128028e60"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := enc.Encode(tc.fields...)
			if got := hex.EncodeToString(f.Marshal()); got != tc.hex {
				t.Errorf("Encode(%q) bytes = %s, want %s", tc.fields, got, tc.hex)
			}
			if f.Ones() != tc.ones {
				t.Errorf("Encode(%q) ones = %d, want %d", tc.fields, f.Ones(), tc.ones)
			}
		})
	}

	// One vector at the default production parameters (m=1000, k=30, q=2),
	// where the filter tail occupies a partial word.
	enc2, err := NewEncoder(1000, 30, 2, []byte("pprl-shared-key"))
	if err != nil {
		t.Fatal(err)
	}
	const wantHex = "0281cc830501550a9601b008444c194078803000268c5001d4909008098400521440dc2114204a604c911924b18a40189a140426104d4242251432151801834820100141022143a0300111028a0aa18464a68380237649000a030d22011121201018068a8964410016062012a0ab5141090820a0c22461580d00b49880000000"
	g := enc2.Encode("smith", "1985")
	if got := hex.EncodeToString(g.Marshal()); got != wantHex {
		t.Errorf("default-params encoding drifted:\n got %s\nwant %s", got, wantHex)
	}
	if g.Ones() != 276 {
		t.Errorf("default-params ones = %d, want 276", g.Ones())
	}
	// Dice over pinned encodings is itself pinned: an exact ratio of
	// small integers, not an approximation.
	a, b := enc2.Encode("smith"), enc2.Encode("smyth")
	if got := a.Dice(b); got != 0.70833333333333337 {
		t.Errorf("Dice(smith, smyth) = %.17g, want 0.70833333333333337", got)
	}
}

// TestTierLow spans the one threshold's domain: zero is the default, the
// interval is closed at 0 (by way of the default) and open at 1 — at 1 the
// tier would discard every pair, identical CLKs included.
func TestTierLow(t *testing.T) {
	for _, tc := range []struct {
		in, want float64
		ok       bool
	}{
		{0, DefaultTierLow, true},
		{0.4, 0.4, true},
		{0.99, 0.99, true},
		{1, 0, false},
		{-0.1, 0, false},
		{math.NaN(), 0, false},
	} {
		got := tc.in
		if err := TierLow(&got); (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("TierLow(%v) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
