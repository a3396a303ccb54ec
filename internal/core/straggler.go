package core

import (
	"slices"
	"time"
)

// Straggler-threshold defaults, shared by the TCP master and the
// cluster simulator so both call a partition slow by the same rule.
const (
	// DefaultSpeculationMultiplier is the straggler threshold multiplier
	// used when the caller's is zero: a partition is a straggler once its
	// elapsed time exceeds twice the median service time of its query's
	// completed partitions.
	DefaultSpeculationMultiplier = 2
	// DefaultSpeculationFloor bounds the straggler threshold from below
	// when the caller's floor is zero, so near-instant medians (tiny
	// queries) cannot trigger speculation on ordinary scheduling jitter.
	DefaultSpeculationFloor = 250 * time.Millisecond
)

// StragglerThreshold is the elapsed time past which a partition counts
// as a straggler: multiplier × the median service time of the query's
// completed partitions (the upper median, sorted[len/2], for even
// counts), never below floor. Zero multiplier or floor means the
// default. It reports false while done is empty — with no baseline
// there is no notion of "slow". done is not modified.
func StragglerThreshold(done []time.Duration, multiplier float64, floor time.Duration) (time.Duration, bool) {
	if len(done) == 0 {
		return 0, false
	}
	if multiplier == 0 {
		multiplier = DefaultSpeculationMultiplier
	}
	if floor == 0 {
		floor = DefaultSpeculationFloor
	}
	sorted := slices.Clone(done)
	slices.Sort(sorted)
	return max(time.Duration(float64(sorted[len(sorted)/2])*multiplier), floor), true
}
