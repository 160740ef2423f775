package heuristic

import (
	"errors"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/resolve"
)

// CheckAllowance is the one refusal of a negative budget: each engine asks
// it on entry, before it publishes or computes anything, so before a Plan.
func CheckAllowance(allowance int64, fraction float64) error {
	if allowance < 0 || fraction < 0 {
		return errors.New("negative SMC allowance")
	}
	return nil
}

// Plan is a frozen run's purchase plan (DESIGN.md §16): a walk over the
// class pairs of order through the members of walkA and walkB, the views
// the comparator addresses, with a budget of allowance pairs or, if that is
// 0, fraction of the pairs those views address. The caller adds the rest.
func Plan(order []blocking.GroupPair, walkA, walkB *anonymize.Result, allowance int64, fraction float64) resolve.Input {
	if allowance == 0 {
		allowance = int64(fraction * float64(len(walkA.ClassOf)*len(walkB.ClassOf)))
	}
	return resolve.Input{
		Groups: len(order),
		Group: func(k int) resolve.Group {
			gp := order[k]
			return resolve.Group{A: walkA.Classes[gp.RI].Members, B: walkB.Classes[gp.SI].Members}
		},
		Budget: allowance,
	}
}
