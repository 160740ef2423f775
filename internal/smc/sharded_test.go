package smc

import (
	"math/rand"
	"strings"
	"testing"
)

// shardedTestRecords builds deterministic holder tables exercising all
// three attribute modes of testSpec.
func shardedTestRecords(n int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	recs := make([][]int64, n)
	for i := range recs {
		recs[i] = []int64{
			int64(rng.Intn(3)),      // equality attr: frequent collisions
			int64(rng.Intn(12) - 6), // threshold attr: |a-b| ≤ 4 sometimes
			int64(rng.Intn(100)),    // always attr: ignored by the circuit
		}
	}
	return recs
}

func allPairs(na, nb int) [][2]int {
	pairs := make([][2]int, 0, na*nb)
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs
}

// TestShardedMatchesSerial pins W lanes to one lane of the same engine —
// what NewLocalSecure builds: identical verdicts (positionally aligned),
// identical invocation counts, and nonzero byte accounting over the same
// pair list.
func TestShardedMatchesSerial(t *testing.T) {
	spec := testSpec()
	alice := shardedTestRecords(6, 1)
	bob := shardedTestRecords(6, 2)
	pairs := allPairs(len(alice), len(bob))

	serial, err := NewLocalSecure(spec, alice, bob, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	sharded, err := NewLocalSecureSharded(spec, alice, bob, testKeyBits, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if one, four := serial.Workers(), sharded.Workers(); one != 1 || four != 4 {
		t.Fatalf("Workers() = %d and %d, want 1 and 4", one, four)
	}

	want, err := serial.CompareBatch(pairs)
	if err != nil {
		t.Fatalf("serial CompareBatch: %v", err)
	}
	got, err := sharded.CompareBatch(pairs)
	if err != nil {
		t.Fatalf("sharded CompareBatch: %v", err)
	}
	if len(got) != len(pairs) {
		t.Fatalf("sharded verdicts = %d, want %d", len(got), len(pairs))
	}
	plain := NewPlainComparator(spec, alice, bob)
	for k, p := range pairs {
		if got[k] != want[k] {
			t.Errorf("pair %v: sharded = %v, serial = %v", p, got[k], want[k])
		}
		truth, _ := plain.Compare(p[0], p[1])
		if got[k] != truth {
			t.Errorf("pair %v: sharded = %v, plaintext = %v", p, got[k], truth)
		}
	}

	if si, gi := serial.Invocations(), sharded.Invocations(); si != gi || gi != int64(len(pairs)) {
		t.Errorf("invocations: serial = %d, sharded = %d, want %d", si, gi, len(pairs))
	}
	if b := sharded.BytesTransferred(); b <= 0 {
		t.Errorf("sharded BytesTransferred = %d, want > 0", b)
	}
	// Each lane speaks the one-lane protocol run by run, and the contiguous
	// stripes cut at most W−1 of the list's runs in two: one lane sends one
	// share set per Alice record here (6 runs of 6), four lanes of 9 pairs
	// send two each. The per-comparison cost must agree up to
	// those extra share sets and the per-lane handshake (W key broadcasts
	// instead of 1).
	perSerial := float64(serial.BytesTransferred()) / float64(len(pairs))
	perSharded := float64(sharded.BytesTransferred()) / float64(len(pairs))
	if perSharded < 0.5*perSerial || perSharded > 2*perSerial {
		t.Errorf("bytes/comparison diverge: serial %.0f, sharded %.0f", perSerial, perSharded)
	}
}

// TestShardedSingleLane: one lane answers as the plaintext rule does.
func TestShardedSingleLane(t *testing.T) {
	spec := testSpec()
	alice := shardedTestRecords(4, 3)
	bob := shardedTestRecords(4, 4)
	pairs := allPairs(len(alice), len(bob))

	sharded, err := NewLocalSecureSharded(spec, alice, bob, testKeyBits, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	got, err := sharded.CompareBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewPlainComparator(spec, alice, bob)
	for k, p := range pairs {
		truth, _ := plain.Compare(p[0], p[1])
		if got[k] != truth {
			t.Errorf("pair %v: sharded = %v, plaintext = %v", p, got[k], truth)
		}
	}
	// Compare (lane 0) also works and counts.
	m, err := sharded.Compare(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := plain.Compare(0, 0)
	if m != truth {
		t.Errorf("Compare(0,0) = %v, want %v", m, truth)
	}
	if inv := sharded.Invocations(); inv != int64(len(pairs)+1) {
		t.Errorf("invocations = %d, want %d", inv, len(pairs)+1)
	}
}

// TestShardedEmptyBatch: zero pairs resolve immediately.
func TestShardedEmptyBatch(t *testing.T) {
	spec := testSpec()
	sharded, err := NewLocalSecureSharded(spec, shardedTestRecords(2, 5), shardedTestRecords(2, 6), testKeyBits, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	out, err := sharded.CompareBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("verdicts = %v, want empty", out)
	}
}

// TestShardedPartyDeathMidBatch: an out-of-range record index kills
// Alice's loop mid-batch. One lane and three must both surface her error
// instead of hanging.
func TestShardedPartyDeathMidBatch(t *testing.T) {
	spec := testSpec()
	alice := shardedTestRecords(4, 7)
	bob := shardedTestRecords(4, 8)
	// Valid work before and after the poison pair, spread across lanes.
	pairs := allPairs(len(alice), len(bob))
	pairs[len(pairs)/2] = [2]int{99, 0} // Alice has no record 99

	for name, mk := range map[string]func() (Comparator, error){
		"serial": func() (Comparator, error) {
			return NewLocalSecure(spec, alice, bob, testKeyBits)
		},
		"sharded": func() (Comparator, error) {
			return NewLocalSecureSharded(spec, alice, bob, testKeyBits, 3)
		},
	} {
		t.Run(name, func(t *testing.T) {
			cmp, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			defer cmp.Close()
			if _, err := cmp.CompareBatch(pairs); err == nil {
				t.Fatal("CompareBatch with dead party succeeded")
			} else if !strings.Contains(err.Error(), "out of range") {
				t.Errorf("error %q does not carry the party's cause", err)
			}
		})
	}
}

// TestShardedSharedEngines hammers the shared noise table and randomizer
// pool: many lanes over few records, so every lane races to initialize
// the engines and then draws from them at once. Run with -race.
func TestShardedSharedEngines(t *testing.T) {
	spec := testSpec()
	alice := shardedTestRecords(3, 9)
	bob := shardedTestRecords(3, 10)
	pairs := allPairs(len(alice), len(bob))

	sharded, err := NewLocalSecureSharded(spec, alice, bob, testKeyBits, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	plain := NewPlainComparator(spec, alice, bob)
	truth := make([]bool, len(pairs))
	for k, p := range pairs {
		truth[k], _ = plain.Compare(p[0], p[1])
	}

	const rounds = 3
	for r := 0; r < rounds; r++ {
		got, err := sharded.CompareBatch(pairs)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for k := range pairs {
			if got[k] != truth[k] {
				t.Fatalf("round %d, pair %v: got %v, want %v", r, pairs[k], got[k], truth[k])
			}
		}
	}
	if inv := sharded.Invocations(); inv != int64(rounds*len(pairs)) {
		t.Errorf("invocations = %d, want %d", inv, rounds*len(pairs))
	}
}
