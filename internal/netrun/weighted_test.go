package netrun

import (
	"context"
	"math"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/partition"
)

func TestWeightedMasterValidation(t *testing.T) {
	if _, err := NewMasterWithOptions([]string{"a:1"}, Options{Weights: []float64{1, 2}}); err == nil {
		t.Fatal("mismatched weight count accepted")
	}
	if _, err := NewMasterWithOptions([]string{"a:1", "b:1"}, Options{Weights: []float64{1, 0}}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := NewMasterWithOptions([]string{"a:1", "b:1"}, Options{Weights: []float64{1, -2}}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewMasterWithOptions([]string{"a:1", "b:1"}, Options{Weights: nil}); err != nil {
		t.Fatalf("nil weights rejected: %v", err)
	}
}

func TestAssignPartitionsRoundRobin(t *testing.T) {
	ms, err := NewMasterWithOptions([]string{"a:1", "b:1", "c:1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts := ms.assignPartitions(8)
	if len(parts[0]) != 3 || len(parts[1]) != 3 || len(parts[2]) != 2 {
		t.Fatalf("round robin = %v", parts)
	}
	checkCoverage(t, parts, 8)
}

func TestAssignPartitionsProportional(t *testing.T) {
	// A worker that is 3x as fast gets ~3x the partitions (footnote 1).
	ms, err := NewMasterWithOptions([]string{"fast:1", "slow:1"}, Options{Weights: []float64{3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	parts := ms.assignPartitions(16)
	if len(parts[0]) != 12 || len(parts[1]) != 4 {
		t.Fatalf("proportional assignment = %d/%d want 12/4", len(parts[0]), len(parts[1]))
	}
	checkCoverage(t, parts, 16)

	// Largest-remainder rounding: 3 partitions over weights 1:1 gives
	// 2:1 or 1:2, never 3:0.
	ms2, err := NewMasterWithOptions([]string{"a:1", "b:1"}, Options{Weights: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	parts = ms2.assignPartitions(3)
	if len(parts[0])+len(parts[1]) != 3 || len(parts[0]) == 0 || len(parts[1]) == 0 {
		t.Fatalf("remainder assignment = %v", parts)
	}
	checkCoverage(t, parts, 3)
}

func checkCoverage(t *testing.T, parts [][]int, m int) {
	t.Helper()
	seen := map[int]bool{}
	for _, ps := range parts {
		for _, p := range ps {
			if seen[p] {
				t.Fatalf("partition %d assigned twice", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != m {
		t.Fatalf("covered %d of %d partitions", len(seen), m)
	}
}

// End-to-end: a weighted master returns the same optimum.
func TestWeightedMasterEndToEnd(t *testing.T) {
	addrs := startWorkers(t, 2)
	ms, err := NewMasterWithOptions(addrs, Options{Weights: []float64{3, 1}, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	q := gen(t, 8, 3)
	spec := core.JobSpec{Space: partition.Linear, Workers: 16}
	dist, err := ms.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.Optimize(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist.Best.Cost-local.Best.Cost) > 1e-9*local.Best.Cost {
		t.Fatal("weighted master returned a different optimum")
	}
	if len(dist.PerWorker) != 16 {
		t.Fatalf("reports for %d partitions", len(dist.PerWorker))
	}
}
