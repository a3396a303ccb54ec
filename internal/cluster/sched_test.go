package cluster

import (
	"context"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/wire"
)

// The adaptive scheduler must not change what is computed — only when.
// Fault-free, with a bounded node pool, the chosen plan is fingerprint-
// identical to the classic one-node-per-partition run.
func TestAdaptivePlanMatchesLegacy(t *testing.T) {
	q := gen(t, 10, 7)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	legacy, err := RunMPQ(context.Background(), Default(), q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	model := Default()
	model.Nodes = 3
	adaptive, err := RunMPQ(context.Background(), model, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	if lf, af := wire.PlanFingerprint(legacy.Best), wire.PlanFingerprint(adaptive.Best); lf != af {
		t.Fatalf("adaptive plan diverged: %s != %s", af, lf)
	}
	if adaptive.Metrics.Speculations != 0 || adaptive.Metrics.WastedWork != 0 {
		t.Fatalf("fault-free adaptive run speculated: %+v", adaptive.Metrics)
	}
}

// The acceptance criterion of the adaptive scheduler: under a scripted
// stall, a speculative run completes in less than 60% of the
// non-speculative virtual wall-time, and the chosen plan stays
// fingerprint-identical to the fault-free run. Virtual time makes this
// fully deterministic.
func TestStallSpeculationBeatsWaitingDeterministically(t *testing.T) {
	q := gen(t, 12, 3)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	model := Default()
	model.Nodes = 4

	clean, err := RunMPQ(context.Background(), model, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	stall := Faults{Stalled: []int{0}, StallFactor: 50}
	slow, err := RunMPQ(context.Background(), model, q, spec, stall)
	if err != nil {
		t.Fatal(err)
	}
	stallSpec := stall
	stallSpec.Speculate = true
	fast, err := RunMPQ(context.Background(), model, q, spec, stallSpec)
	if err != nil {
		t.Fatal(err)
	}

	cf := wire.PlanFingerprint(clean.Best)
	for name, r := range map[string]*Result{"stalled": slow, "speculative": fast} {
		if f := wire.PlanFingerprint(r.Best); f != cf {
			t.Fatalf("%s plan diverged from fault-free run: %s != %s", name, f, cf)
		}
	}
	if slow.Metrics.VirtualTime <= clean.Metrics.VirtualTime {
		t.Fatalf("stall had no effect: stalled %v <= clean %v", slow.Metrics.VirtualTime, clean.Metrics.VirtualTime)
	}
	if limit := slow.Metrics.VirtualTime * 6 / 10; fast.Metrics.VirtualTime >= limit {
		t.Fatalf("speculation too slow: %v, want < 60%% of %v (= %v)",
			fast.Metrics.VirtualTime, slow.Metrics.VirtualTime, limit)
	}
	if fast.Metrics.Speculations == 0 {
		t.Fatal("speculative run recorded no speculations")
	}
	if fast.Metrics.WastedWork == 0 {
		t.Fatal("speculative run recorded no wasted work — the canceled straggler burned compute")
	}
	if fast.Metrics.RecoveryOverhead <= 0 {
		t.Fatalf("speculative run under a stall should still report overhead, got %v", fast.Metrics.RecoveryOverhead)
	}

	// Determinism: the virtual schedule must replay bit for bit.
	again, err := RunMPQ(context.Background(), model, q, spec, stallSpec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Metrics != fast.Metrics {
		t.Fatalf("speculative schedule not deterministic:\n first %+v\nsecond %+v", fast.Metrics, again.Metrics)
	}
}

// A dead node under the adaptive scheduler recovers through detection +
// re-dispatch, and speculation can even pre-empt the detector; either
// way the plan is unchanged.
func TestAdaptiveDeadNodeRecovers(t *testing.T) {
	q := gen(t, 10, 5)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	model := Default()
	model.Nodes = 3
	clean, err := RunMPQ(context.Background(), model, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	dead, err := RunMPQ(context.Background(), model, q, spec, Faults{Dead: []int{1}, DetectTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if cf, df := wire.PlanFingerprint(clean.Best), wire.PlanFingerprint(dead.Best); cf != df {
		t.Fatalf("dead-node plan diverged: %s != %s", df, cf)
	}
	if dead.Metrics.Redispatches == 0 {
		t.Fatal("dead node produced no re-dispatches")
	}
	if dead.Metrics.VirtualTime <= clean.Metrics.VirtualTime {
		t.Fatal("death and recovery cost no virtual time")
	}
}

// Per-node CPU capacities shape the schedule: doubling every node's CPU
// halves compute, and a pool with one fast node beats an all-slow pool.
func TestMultiResourceCPUShapesSchedule(t *testing.T) {
	q := gen(t, 10, 11)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	model := Default()
	model.Nodes = 2
	model.Resources = []NodeResources{{CPU: 1}, {CPU: 1}}
	base, err := RunMPQ(context.Background(), model, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	fast := model
	fast.Resources = []NodeResources{{CPU: 4}, {CPU: 4}}
	quick, err := RunMPQ(context.Background(), fast, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	if quick.Metrics.VirtualTime >= base.Metrics.VirtualTime {
		t.Fatalf("4x CPUs did not shorten the schedule: %v >= %v",
			quick.Metrics.VirtualTime, base.Metrics.VirtualTime)
	}
	if bf, qf := wire.PlanFingerprint(base.Best), wire.PlanFingerprint(quick.Best); bf != qf {
		t.Fatalf("resource model changed the plan: %s != %s", qf, bf)
	}
}

// A node whose memory cannot hold a partition's memo spills and slows
// down; the schedule reflects it, the plan does not.
func TestMultiResourceMemorySpill(t *testing.T) {
	q := gen(t, 10, 13)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	model := Default()
	model.Nodes = 2
	model.Resources = []NodeResources{{CPU: 1}, {CPU: 1}}
	roomy, err := RunMPQ(context.Background(), model, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	tight := model
	tight.Resources = []NodeResources{{CPU: 1, MemoryBytes: 256}, {CPU: 1, MemoryBytes: 256}}
	spilled, err := RunMPQ(context.Background(), tight, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Metrics.VirtualTime <= roomy.Metrics.VirtualTime {
		t.Fatalf("spill cost no time: %v <= %v", spilled.Metrics.VirtualTime, roomy.Metrics.VirtualTime)
	}
	if rf, sf := wire.PlanFingerprint(roomy.Best), wire.PlanFingerprint(spilled.Best); rf != sf {
		t.Fatalf("spill changed the plan: %s != %s", sf, rf)
	}
}

// Resource slices must match the node pool, and fault scripts must be
// internally consistent.
func TestAdaptiveValidation(t *testing.T) {
	q := gen(t, 8, 1)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	model := Default()
	model.Nodes = 3
	model.Resources = []NodeResources{{CPU: 1}, {CPU: 1}} // 2 entries, 3 nodes
	if _, err := RunMPQ(context.Background(), model, q, spec, Faults{}); err == nil {
		t.Fatal("mismatched resource slice accepted")
	}
	if err := (Faults{Stalled: []int{0}, StallFactor: 0.5}).Validate(4); err == nil {
		t.Fatal("stall factor below 1 accepted")
	}
	if err := (Faults{Dead: []int{1}, Stalled: []int{1}}).Validate(4); err == nil {
		t.Fatal("node both dead and stalled accepted")
	}
	if err := (Faults{Stalled: []int{9}}).Validate(4); err == nil {
		t.Fatal("out-of-range stalled node accepted")
	}
	if err := (Faults{Speculate: true, SpecMultiplier: 0.3}).Validate(4); err == nil {
		t.Fatal("speculation multiplier below 1 accepted")
	}
}
