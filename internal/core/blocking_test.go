package core

import (
	"testing"

	"pprl/internal/adult"
	"pprl/internal/blocking"
	"pprl/internal/index"
)

// TestIndexedLinkMatchesReferenceBlock runs the same linkage over the
// hierarchy index (the route Link takes) and over the exhaustive
// reference blocking.Block handed to LinkPrepared, and requires identical
// outputs: same counts, same final label for every record pair, same SMC
// spending.
func TestIndexedLinkMatchesReferenceBlock(t *testing.T) {
	alice, bob := workload(t, 600, 42)
	cfg := DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 8, 8

	indexed, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := blocking.Block(indexed.Block.R, indexed.Block.S, indexed.Rule())
	if err != nil {
		t.Fatal(err)
	}
	dense, err := LinkPrepared(Holder{Data: alice}, Holder{Data: bob}, ref, cfg)
	if err != nil {
		t.Fatal(err)
	}

	db, ib := dense.Block, indexed.Block
	if db.MatchedPairs != ib.MatchedPairs || db.NonMatchedPairs != ib.NonMatchedPairs ||
		db.UnknownPairs != ib.UnknownPairs || db.UnknownGroups != ib.UnknownGroups {
		t.Fatalf("blocking counts diverge: reference M/N/U/UG = %d/%d/%d/%d, indexed = %d/%d/%d/%d",
			db.MatchedPairs, db.NonMatchedPairs, db.UnknownPairs, db.UnknownGroups,
			ib.MatchedPairs, ib.NonMatchedPairs, ib.UnknownPairs, ib.UnknownGroups)
	}
	if dense.Invocations != indexed.Invocations {
		t.Fatalf("SMC invocations diverge: reference %d, indexed %d", dense.Invocations, indexed.Invocations)
	}
	for i := 0; i < alice.Len(); i++ {
		for j := 0; j < bob.Len(); j++ {
			if d, x := dense.PairMatched(i, j), indexed.PairMatched(i, j); d != x {
				t.Fatalf("pair (%d,%d): reference says %v, indexed says %v", i, j, d, x)
			}
		}
	}
	if ib.Stats == nil {
		t.Error("indexed result carries no pruning stats")
	}
}

// TestReleaseLabelsKeepsSweepsWorking reuses one index.Block result
// across LinkPrepared calls, the way parameter sweeps do: each sweep
// point must agree with a fresh Link under the same configuration, so
// resolving over a blocking result leaves it intact for the next one.
func TestReleaseLabelsKeepsSweepsWorking(t *testing.T) {
	alice, bob := workload(t, 400, 7)
	cfg := DefaultConfig(adult.DefaultQIDs())
	cfg.AliceK, cfg.BobK = 8, 8
	first, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	block, err := index.Block(first.Block.R, first.Block.S, first.Rule())
	if err != nil {
		t.Fatal(err)
	}
	for _, fraction := range []float64{cfg.AllowanceFraction, 2 * cfg.AllowanceFraction} {
		cfg.AllowanceFraction = fraction
		fresh, err := Link(Holder{Data: alice}, Holder{Data: bob}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		swept, err := LinkPrepared(Holder{Data: alice}, Holder{Data: bob}, block, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.MatchedPairCount() != swept.MatchedPairCount() || fresh.Invocations != swept.Invocations {
			t.Fatalf("allowance %v: sweep over the shared block diverged: %d matches / %d invocations, fresh %d / %d",
				fraction, swept.MatchedPairCount(), swept.Invocations, fresh.MatchedPairCount(), fresh.Invocations)
		}
	}
}
