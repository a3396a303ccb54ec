package netrun

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/wire"
	"mpq/internal/workload"
)

// startChaosWorkers launches k real workers, each behind a chaos proxy
// scripted by plans[i] (nil = pass-through), and returns the proxy
// addresses the master should dial plus the proxies for inspection.
func startChaosWorkers(t *testing.T, k int, plans []FaultPlan) ([]string, []*ChaosProxy) {
	t.Helper()
	addrs := make([]string, k)
	proxies := make([]*ChaosProxy, k)
	for i := 0; i < k; i++ {
		w, err := ListenWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		var fp FaultPlan
		if plans != nil {
			fp = plans[i]
		}
		p, err := NewChaosProxy(w.Addr(), fp)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		addrs[i] = p.Addr()
		proxies[i] = p
	}
	return addrs, proxies
}

// assertBitIdentical requires the exact same plan bytes and cost from
// the faulted distributed run, the clean distributed run, and the
// in-process engine (dp.Run per partition + FinalPrune).
func assertBitIdentical(t *testing.T, faulted *plan.Node, clean *plan.Node, local *plan.Node) {
	t.Helper()
	ff, cf, lf := wire.PlanFingerprint(faulted), wire.PlanFingerprint(clean), wire.PlanFingerprint(local)
	if ff != cf {
		t.Fatalf("faulted plan differs from failure-free plan:\n%s\nvs\n%s", faulted, clean)
	}
	if ff != lf {
		t.Fatalf("faulted plan differs from in-process plan:\n%s\nvs\n%s", faulted, local)
	}
	if faulted.Cost != clean.Cost || faulted.Cost != local.Cost {
		t.Fatalf("costs differ: faulted %v clean %v local %v", faulted.Cost, clean.Cost, local.Cost)
	}
}

// The acceptance criterion: with m workers and any k < m of them
// killed, stalled, or corrupted mid-query, Optimize returns a plan
// bit-identical to the failure-free run.
func TestAnyMinorityFaultedBitIdentical(t *testing.T) {
	q := gen(t, 8, 11)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	local, err := core.Optimize(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	cleanAddrs := startWorkers(t, 4)
	cleanMaster, err := NewMasterWithOptions(cleanAddrs, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := cleanMaster.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}

	actions := []FaultAction{KillBeforeResponse, Stall, TruncateResponse, CorruptResponse, CorruptRequest}
	for _, action := range actions {
		for k := 1; k < 4; k++ {
			t.Run(fmt.Sprintf("%v_k%d", action, k), func(t *testing.T) {
				if testing.Short() && action == Stall && k == 2 {
					t.Skip("short mode: skip one stall size")
				}
				plans := make([]FaultPlan, 4)
				for i := 0; i < k; i++ {
					plans[i] = FaultPlan{0: action}
				}
				addrs, _ := startChaosWorkers(t, 4, plans)
				ms, err := NewMasterWithOptions(addrs, Options{
					Timeout:           700 * time.Millisecond,
					MaxAttempts:       4,
					MaxWorkerFailures: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				ans, err := ms.OptimizeContext(context.Background(), q, spec)
				if err != nil {
					t.Fatalf("%v with k=%d not survived: %v", action, k, err)
				}
				assertBitIdentical(t, ans.Best, clean.Best, local.Best)
				if ans.Net.Redispatched < k {
					t.Fatalf("Redispatched = %d, want >= %d", ans.Net.Redispatched, k)
				}
			})
		}
	}
}

// End-to-end equivalence on random join graphs: distributed-with-faults,
// distributed-failure-free, and the in-process engine must agree on plan
// fingerprints and costs exactly.
func TestEndToEndEquivalenceUnderRandomFaults(t *testing.T) {
	// Snowflake first so the short run covers the newest shape; every
	// third iteration stresses correlated selectivities.
	shapes := []workload.Shape{workload.Snowflake, workload.Star, workload.Chain, workload.Cycle, workload.Clique}
	iters := 10
	if testing.Short() {
		iters = 4
	}
	rng := rand.New(rand.NewSource(2016))
	for it := 0; it < iters; it++ {
		shape := shapes[it%len(shapes)]
		n := 7 + it%3
		params := workload.NewParams(n, shape)
		if it%3 == 0 {
			params.Correlation = 0.7
		}
		q := workload.MustGenerate(params, int64(100+it))
		spec := core.JobSpec{Space: partition.Linear, Workers: 8}
		if it%2 == 1 {
			spec = core.JobSpec{Space: partition.Bushy, Workers: 4}
		}

		local, err := core.Optimize(q, spec)
		if err != nil {
			t.Fatal(err)
		}
		cleanAddrs := startWorkers(t, 4)
		cleanMaster, err := NewMasterWithOptions(cleanAddrs, Options{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		clean, err := cleanMaster.OptimizeContext(context.Background(), q, spec)
		if err != nil {
			t.Fatal(err)
		}

		// Random fault script. At most 2 faults per proxy and 5 in total,
		// which with MaxAttempts=6 and MaxWorkerFailures=3 guarantees the
		// budget can never be exhausted — recovery must always succeed.
		faultKinds := []FaultAction{KillBeforeResponse, TruncateResponse, CorruptResponse, CorruptRequest}
		plans := make([]FaultPlan, 4)
		total := 0
		for i := range plans {
			plans[i] = FaultPlan{}
			if total < 5 && rng.Float64() < 0.6 {
				plans[i][0] = faultKinds[rng.Intn(len(faultKinds))]
				total++
			}
			if total < 5 && rng.Float64() < 0.25 {
				plans[i][1] = faultKinds[rng.Intn(len(faultKinds))]
				total++
			}
		}
		if total == 0 {
			plans[0][0] = KillBeforeResponse
		}
		addrs, _ := startChaosWorkers(t, 4, plans)
		ms, err := NewMasterWithOptions(addrs, Options{
			Timeout:           5 * time.Second,
			MaxAttempts:       6,
			MaxWorkerFailures: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		faulted, err := ms.OptimizeContext(context.Background(), q, spec)
		if err != nil {
			t.Fatalf("iter %d (%v %d tables): %v", it, shape, n, err)
		}
		assertBitIdentical(t, faulted.Best, clean.Best, local.Best)
	}
}

// Multi-objective jobs must return the identical merged frontier under
// injected failures.
func TestMultiObjectiveFaultedFrontierIdentical(t *testing.T) {
	q := gen(t, 7, 1)
	spec := core.JobSpec{
		Space: partition.Linear, Workers: 4,
		Objective: core.MultiObjective, Alpha: 1,
	}
	local, err := core.Optimize(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	plans := []FaultPlan{{0: KillBeforeResponse}, {0: CorruptResponse}, nil, nil}
	addrs, _ := startChaosWorkers(t, 4, plans)
	ms, err := NewMasterWithOptions(addrs, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := ms.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Frontier) != len(local.Frontier) {
		t.Fatalf("frontier size %d != %d", len(dist.Frontier), len(local.Frontier))
	}
	for i := range dist.Frontier {
		if wire.PlanFingerprint(dist.Frontier[i]) != wire.PlanFingerprint(local.Frontier[i]) {
			t.Fatalf("frontier plan %d differs", i)
		}
	}
}

// A worker that keeps failing is excluded and its whole share moves to
// the survivors.
func TestWorkerExclusionAfterRepeatedFailures(t *testing.T) {
	q := gen(t, 8, 5)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	local, err := core.Optimize(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Proxy 0 kills every job it ever sees; proxy 1 is clean.
	killAll := FaultPlan{}
	for i := 0; i < 16; i++ {
		killAll[i] = KillBeforeResponse
	}
	addrs, proxies := startChaosWorkers(t, 2, []FaultPlan{killAll, nil})
	ms, err := NewMasterWithOptions(addrs, Options{
		Timeout:           2 * time.Second,
		MaxAttempts:       3,
		MaxWorkerFailures: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ms.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if wire.PlanFingerprint(ans.Best) != wire.PlanFingerprint(local.Best) {
		t.Fatal("plan differs after worker exclusion")
	}
	if ans.Net.Redispatched < 2 {
		t.Fatalf("Redispatched = %d, want >= 2", ans.Net.Redispatched)
	}
	// Exclusion after 2 consecutive failures: the dead worker saw exactly
	// its failure-budget worth of jobs, not its whole share of 4.
	if got := proxies[0].Jobs(); got != 2 {
		t.Fatalf("excluded worker saw %d jobs, want 2", got)
	}
}

// A duplicated response frame must not be mistaken for the answer to
// the next job on the same connection: the sequence echo identifies it
// and the master's aggregation ignores it. One worker serves all four
// partitions back to back, so without the seq check the duplicate of
// job 0's response would be consumed as job 1's answer and corrupt the
// aggregation (or desync the stream).
func TestDuplicateResponseIgnored(t *testing.T) {
	q := gen(t, 8, 3)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	local, err := core.Optimize(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startChaosWorkers(t, 1, []FaultPlan{{0: DuplicateResponse, 2: DuplicateResponse}})
	ms, err := NewMasterWithOptions(addrs, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ms.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if wire.PlanFingerprint(ans.Best) != wire.PlanFingerprint(local.Best) {
		t.Fatal("plan differs under duplicated responses")
	}
	if ans.Net.Redispatched != 0 {
		t.Fatalf("Redispatched = %d: duplicates must not look like failures", ans.Net.Redispatched)
	}
	if ans.Net.IgnoredFrames != 2 {
		t.Fatalf("IgnoredFrames = %d, want 2 (one per duplicated frame)", ans.Net.IgnoredFrames)
	}
	// Every partition must have been answered exactly once in the
	// aggregation: 4 reports, each with plans.
	if len(ans.PerWorker) != 4 {
		t.Fatalf("PerWorker reports = %d, want 4", len(ans.PerWorker))
	}
}

// A duplicate that surfaces while a *different* query's unit is in
// flight on the shared batch connection must be billed to the query
// that produced it, not the one that happened to read it.
func TestDuplicateAttributionAcrossBatchQueries(t *testing.T) {
	qa, qb := gen(t, 7, 31), gen(t, 7, 32)
	jspec := core.JobSpec{Space: partition.Linear, Workers: 4}
	// One worker serves query A's four units, then query B's four; the
	// proxy duplicates the response of A's last unit (arrival index 3),
	// so the duplicate is read while B's first unit is in flight.
	addrs, _ := startChaosWorkers(t, 1, []FaultPlan{{3: DuplicateResponse}})
	ms, err := NewMasterWithOptions(addrs, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := ms.OptimizeBatch(t.Context(), []Job{
		{Query: qa, Spec: jspec},
		{Query: qb, Spec: jspec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := answers[0].Net.IgnoredFrames; got != 1 {
		t.Fatalf("query A IgnoredFrames = %d, want 1 (it produced the duplicate)", got)
	}
	if got := answers[1].Net.IgnoredFrames; got != 0 {
		t.Fatalf("query B IgnoredFrames = %d, want 0 (it only read the duplicate)", got)
	}
	// The duplicate's bytes and message land on A as well: A saw its 8
	// regular frames plus the duplicate.
	if answers[0].Net.Messages != 9 || answers[1].Net.Messages != 8 {
		t.Fatalf("messages = %d/%d, want 9/8", answers[0].Net.Messages, answers[1].Net.Messages)
	}
}

// A batch keeps its bit-identity guarantee under injected faults: the
// units of both queries are interleaved over the same keep-alive
// connections, some attempts are killed or corrupted, and every answer
// must still match its clean single-query run byte for byte.
func TestBatchBitIdenticalUnderFaults(t *testing.T) {
	qa, qb := gen(t, 8, 21), gen(t, 7, 22)
	ja := Job{Query: qa, Spec: core.JobSpec{Space: partition.Linear, Workers: 8}}
	jb := Job{Query: qb, Spec: core.JobSpec{Space: partition.Bushy, Workers: 4}}
	localA, err := core.Optimize(qa, ja.Spec)
	if err != nil {
		t.Fatal(err)
	}
	localB, err := core.Optimize(qb, jb.Spec)
	if err != nil {
		t.Fatal(err)
	}
	plans := []FaultPlan{
		{0: KillBeforeResponse, 3: CorruptResponse, 5: DuplicateResponse},
		{1: TruncateResponse},
	}
	addrs, _ := startChaosWorkers(t, 2, plans)
	ms, err := NewMasterWithOptions(addrs, Options{
		Timeout:           5 * time.Second,
		MaxAttempts:       6,
		MaxWorkerFailures: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := ms.OptimizeBatch(t.Context(), []Job{ja, jb})
	if err != nil {
		t.Fatal(err)
	}
	if wire.PlanFingerprint(answers[0].Best) != wire.PlanFingerprint(localA.Best) {
		t.Fatal("batch answer 0 differs from the in-process plan")
	}
	if wire.PlanFingerprint(answers[1].Best) != wire.PlanFingerprint(localB.Best) {
		t.Fatal("batch answer 1 differs from the in-process plan")
	}
	redispatched := answers[0].Net.Redispatched + answers[1].Net.Redispatched
	if redispatched < 3 {
		t.Fatalf("Redispatched = %d across the batch, want >= 3", redispatched)
	}
}

// When every attempt fails, the retry budget bounds the damage and the
// error names the partition.
func TestRetryBudgetExhausted(t *testing.T) {
	killAll := FaultPlan{}
	for i := 0; i < 16; i++ {
		killAll[i] = KillBeforeResponse
	}
	addrs, _ := startChaosWorkers(t, 1, []FaultPlan{killAll})
	ms, err := NewMasterWithOptions(addrs, Options{
		Timeout:           time.Second,
		MaxAttempts:       3,
		MaxWorkerFailures: 10, // don't exclude: exercise the attempt budget
	})
	if err != nil {
		t.Fatal(err)
	}
	q := gen(t, 6, 0)
	_, err = ms.OptimizeContext(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 2})
	if err == nil {
		t.Fatal("exhausted retry budget not reported")
	}
	if !strings.Contains(err.Error(), "failed 3 times") {
		t.Fatalf("error %q does not mention the attempt budget", err)
	}
}

// A slow connection that still beats the deadline is not a failure.
func TestSlowDripWithinDeadlineSucceeds(t *testing.T) {
	q := gen(t, 7, 2)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	local, err := core.Optimize(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startChaosWorkers(t, 2, []FaultPlan{{0: SlowDrip}, nil})
	ms, err := NewMasterWithOptions(addrs, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ms.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if wire.PlanFingerprint(ans.Best) != wire.PlanFingerprint(local.Best) {
		t.Fatal("plan differs under slow drip")
	}
	if ans.Net.Redispatched != 0 {
		t.Fatalf("Redispatched = %d for a within-deadline drip", ans.Net.Redispatched)
	}
}

// A drip slower than the deadline is a hang: the job must be
// re-dispatched and the answer unchanged.
func TestSlowDripBeyondDeadlineRedispatches(t *testing.T) {
	q := gen(t, 7, 2)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	local, err := core.Optimize(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	addrs, proxies := startChaosWorkers(t, 2, []FaultPlan{{0: SlowDrip}, nil})
	proxies[0].Drip = 300 * time.Millisecond
	proxies[0].DripChunk = 1
	ms, err := NewMasterWithOptions(addrs, Options{Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ms.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if wire.PlanFingerprint(ans.Best) != wire.PlanFingerprint(local.Best) {
		t.Fatal("plan differs after drip timeout")
	}
	if ans.Net.Redispatched == 0 {
		t.Fatal("over-deadline drip was not re-dispatched")
	}
}
