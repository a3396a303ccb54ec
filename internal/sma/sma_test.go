package sma

import (
	"context"
	"math"
	"testing"

	"mpq/internal/cluster"
	"mpq/internal/core"
	"mpq/internal/dp"
	"mpq/internal/mo"
	"mpq/internal/partition"
	"mpq/internal/query"
	"mpq/internal/workload"
)

func gen(t testing.TB, n int, seed int64) *query.Query {
	t.Helper()
	return workload.MustGenerate(workload.NewParams(n, workload.Star), seed)
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// SMA and the serial DP must agree on the optimum: the schedulers differ,
// the algebra does not.
func TestSMAMatchesSerialDP(t *testing.T) {
	for _, space := range []partition.Space{partition.Linear, partition.Bushy} {
		n := 8
		if space == partition.Bushy {
			n = 7
		}
		for seed := int64(0); seed < 3; seed++ {
			q := gen(t, n, seed)
			serial, err := dp.Serial(q, space, dp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{1, 3, 8} {
				res, err := Run(cluster.Default(), q, core.JobSpec{Space: space, Workers: m})
				if err != nil {
					t.Fatal(err)
				}
				if !approx(res.Best.Cost, serial.Best().Cost) {
					t.Fatalf("%v n=%d m=%d: SMA %g != serial %g", space, n, m, res.Best.Cost, serial.Best().Cost)
				}
			}
		}
	}
}

func TestSMAMatchesMPQ(t *testing.T) {
	q := gen(t, 9, 5)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	smaRes, err := Run(cluster.Default(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	mpqRes, err := cluster.RunMPQ(context.Background(), cluster.Default(), q, spec, cluster.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(smaRes.Best.Cost, mpqRes.Best.Cost) {
		t.Fatalf("SMA %g != MPQ %g", smaRes.Best.Cost, mpqRes.Best.Cost)
	}
}

// The structural claim of Figure 1: SMA moves orders of magnitude more
// bytes than MPQ, and its traffic grows with the worker count.
func TestSMATrafficDwarfsMPQ(t *testing.T) {
	q := gen(t, 10, 1)
	for _, m := range []int{4, 16} {
		spec := core.JobSpec{Space: partition.Linear, Workers: m}
		smaRes, err := Run(cluster.Default(), q, spec)
		if err != nil {
			t.Fatal(err)
		}
		mpqRes, err := cluster.RunMPQ(context.Background(), cluster.Default(), q, spec, cluster.Faults{})
		if err != nil {
			t.Fatal(err)
		}
		if smaRes.Metrics.Bytes < 10*mpqRes.Metrics.Bytes {
			t.Fatalf("m=%d: SMA bytes %d not >> MPQ bytes %d", m, smaRes.Metrics.Bytes, mpqRes.Metrics.Bytes)
		}
	}
}

func TestSMATrafficGrowsWithWorkers(t *testing.T) {
	q := gen(t, 10, 2)
	var prev uint64
	for i, m := range []int{1, 2, 4, 8, 16} {
		res, err := Run(cluster.Default(), q, core.JobSpec{Space: partition.Linear, Workers: m})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Metrics.Bytes <= prev {
			t.Fatalf("m=%d: bytes %d did not grow from %d", m, res.Metrics.Bytes, prev)
		}
		prev = res.Metrics.Bytes
	}
}

func TestSMARoundsAndMessages(t *testing.T) {
	q := gen(t, 8, 0)
	m := 4
	res, err := Run(cluster.Default(), q, core.JobSpec{Space: partition.Linear, Workers: m})
	if err != nil {
		t.Fatal(err)
	}
	// One round per join-result cardinality: 2..n.
	if res.Metrics.Rounds != 7 {
		t.Fatalf("rounds = %d want 7", res.Metrics.Rounds)
	}
	// Per round: m task/delta messages down + m responses up.
	if res.Metrics.Messages != res.Metrics.Rounds*2*m {
		t.Fatalf("messages = %d want %d", res.Metrics.Messages, res.Metrics.Rounds*2*m)
	}
}

// SMA's memory metric does not shrink with parallelism (full replicas),
// in contrast to MPQ.
func TestSMAMemoryConstantInWorkers(t *testing.T) {
	q := gen(t, 9, 3)
	var first uint64
	for i, m := range []int{1, 4, 16} {
		res, err := Run(cluster.Default(), q, core.JobSpec{Space: partition.Linear, Workers: m})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Metrics.MaxMemoEntries
		} else if res.Metrics.MaxMemoEntries != first {
			t.Fatalf("m=%d: memo %d != %d", m, res.Metrics.MaxMemoEntries, first)
		}
	}
	if first != uint64(1<<9-1) {
		t.Fatalf("full memo = %d want %d", first, 1<<9-1)
	}
}

func TestSMAMultiObjective(t *testing.T) {
	q := gen(t, 7, 4)
	spec := core.JobSpec{
		Space: partition.Linear, Workers: 4,
		Objective: core.MultiObjective, Alpha: 1,
	}
	res, err := Run(cluster.Default(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !mo.IsFrontier(res.Frontier) {
		t.Fatal("SMA frontier contains dominated plans")
	}
	mpqRes, err := core.Optimize(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) != len(mpqRes.Frontier) {
		t.Fatalf("SMA frontier %d != MPQ frontier %d", len(res.Frontier), len(mpqRes.Frontier))
	}
}

func TestSMAValidation(t *testing.T) {
	q := gen(t, 6, 0)
	if _, err := Run(cluster.Default(), q, core.JobSpec{Space: partition.Linear, Workers: 0}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := Run(cluster.Default(), q, core.JobSpec{Space: partition.Space(9), Workers: 2}); err == nil {
		t.Fatal("invalid space accepted")
	}
	if _, err := Run(cluster.Model{}, q, core.JobSpec{Space: partition.Linear, Workers: 2}); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := Run(cluster.Default(), q, core.JobSpec{
		Space: partition.Linear, Workers: 2, Objective: core.MultiObjective, Alpha: 0.2,
	}); err == nil {
		t.Fatal("alpha < 1 accepted")
	}
	// Non-power-of-two worker counts are fine for SMA.
	if _, err := Run(cluster.Default(), q, core.JobSpec{Space: partition.Linear, Workers: 5}); err != nil {
		t.Fatalf("m=5 rejected: %v", err)
	}
}

func TestEncodeDeltaSize(t *testing.T) {
	q := gen(t, 4, 0)
	res, err := dp.Serial(q, partition.Linear, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries := []deltaEntry{{set: q.All(), plan: res.Best()}}
	b := encodeDelta(entries)
	if len(b) != 57 {
		t.Fatalf("delta entry size = %d want 57", len(b))
	}
	if len(encodeDelta(nil)) != 0 {
		t.Fatal("empty delta should be empty")
	}
}
