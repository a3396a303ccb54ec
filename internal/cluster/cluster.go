// Package cluster simulates MPQ on a shared-nothing cluster.
//
// The paper evaluates on 100 nodes running Spark on Yarn (§6.1) — a
// testbed we substitute with a deterministic simulator that preserves the
// behaviours the evaluation measures:
//
//   - Network bytes are exact: every master↔worker message is serialized
//     by internal/wire and its real length is accounted.
//   - Virtual time follows the cluster cost structure the paper
//     describes: per-message latency, link bandwidth, per-task assignment
//     (executor setup) overhead, and per-worker compute derived from the
//     DP's deterministic work meter — which the paper shows is
//     proportional to running time and skew-free.
//
// The simulator runs the real optimizer (workers decode their request
// bytes and run the full constrained DP), so results are bit-identical
// to the in-process engine; only the clock is virtual.
package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mpq/internal/core"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/wire"
)

// Model parameterizes the simulated cluster.
type Model struct {
	// Latency is the one-way delay of a message between two nodes.
	Latency time.Duration
	// Bandwidth is the link throughput in bytes per second.
	Bandwidth float64
	// TaskSetup is the per-task launch overhead paid on the executing
	// worker (Spark-style task scheduling and JVM dispatch); workers pay
	// it in parallel.
	TaskSetup time.Duration
	// DispatchPerTask is the master-side serial cost of creating and
	// enqueuing one task — the fine-grained-management overhead the
	// paper's §2 identifies as the master's bottleneck for SMA.
	DispatchPerTask time.Duration
	// NsPerWorkUnit converts one DP work unit (set processed, split
	// tried, or plan generated) into nanoseconds of worker compute.
	NsPerWorkUnit float64
	// FinalPrunePerPlan is the master-side cost of comparing one
	// returned plan during FinalPrune.
	FinalPrunePerPlan time.Duration
	// Nodes bounds the simulated node pool. Zero keeps the classic
	// one-node-per-partition layout; a positive value runs the adaptive
	// scheduler, which interleaves partitions over the pool largest-
	// estimated-cost first (each to the node with the earliest projected
	// finish).
	Nodes int
	// Resources gives per-node capacities for the multi-resource model;
	// non-empty Resources also selects the adaptive scheduler, and the
	// slice length must equal the node count (Nodes, or the partition
	// count when Nodes is zero). Empty means homogeneous unit-CPU nodes.
	Resources []NodeResources
}

// Default returns the model used by the experiment harness: 1 ms
// latency, 100 MB/s links, 100 ms task launch (Spark-like), 200 µs
// master-side dispatch per task, 2 µs per work unit. The compute rate is
// calibrated so the paper-scale queries (Linear-20/24) take on the order
// of a minute on one worker — the "optimization takes minutes on a
// single node" regime in which the paper reports its speedups.
func Default() Model {
	return Model{
		Latency:           time.Millisecond,
		Bandwidth:         100e6,
		TaskSetup:         100 * time.Millisecond,
		DispatchPerTask:   200 * time.Microsecond,
		NsPerWorkUnit:     2000,
		FinalPrunePerPlan: 200 * time.Nanosecond,
	}
}

// Validate reports whether the model is usable.
func (m Model) Validate() error {
	if m.Latency < 0 || m.Bandwidth <= 0 || m.TaskSetup < 0 || m.DispatchPerTask < 0 ||
		m.NsPerWorkUnit < 0 || m.FinalPrunePerPlan < 0 {
		return fmt.Errorf("cluster: invalid model %+v", m)
	}
	if m.Nodes < 0 {
		return fmt.Errorf("cluster: negative node count %d", m.Nodes)
	}
	for i, r := range m.Resources {
		if !(r.CPU > 0) {
			return fmt.Errorf("cluster: node %d CPU %g, must be positive", i, r.CPU)
		}
		if r.Bandwidth < 0 {
			return fmt.Errorf("cluster: node %d negative bandwidth %g", i, r.Bandwidth)
		}
	}
	return nil
}

// transfer returns the time to push n bytes through one link.
func (m Model) transfer(n int) time.Duration {
	return time.Duration(float64(n) / m.Bandwidth * float64(time.Second))
}

// compute converts work units into virtual compute time.
func (m Model) compute(units uint64) time.Duration {
	return time.Duration(float64(units) * m.NsPerWorkUnit)
}

// MPQTime evaluates the one-round MPQ schedule on this cluster model:
// reqBytes[i] and respBytes[i] are worker i's request and response sizes,
// units[i] its compute work. It returns the master-observed total time
// (excluding FinalPrune, which the caller adds per returned plan) and the
// slowest worker's compute time. The master NIC serializes sends and
// receives, making the master's share linear in the worker count
// (Theorem 5).
func (m Model) MPQTime(reqBytes, respBytes []int, units []uint64) (total, maxWorker time.Duration) {
	var masterSendBusy, masterRecvBusy time.Duration
	starts := make([]time.Duration, len(reqBytes))
	for i, rb := range reqBytes {
		masterSendBusy += m.DispatchPerTask + m.transfer(rb)
		// Task launch happens on the workers, concurrently.
		starts[i] = masterSendBusy + m.Latency + m.TaskSetup
	}
	for i := range reqBytes {
		computeT := m.compute(units[i])
		if computeT > maxWorker {
			maxWorker = computeT
		}
		arrival := starts[i] + computeT + m.Latency
		if arrival > masterRecvBusy {
			masterRecvBusy = arrival
		}
		masterRecvBusy += m.transfer(respBytes[i])
	}
	return masterRecvBusy, maxWorker
}

// Faults mirrors the failure model of the TCP runtime (internal/netrun)
// in virtual time: scripted worker deaths plus the master's detection
// timeout, so Fig-style experiments can quantify recovery overhead
// without a wall clock.
type Faults struct {
	// Dead lists virtual nodes that crash after receiving their request
	// and never answer. With Model.Nodes zero, nodes and partition
	// indices coincide (the classic layout). At least one node must
	// survive.
	Dead []int
	// DetectTimeout is the virtual time after a request's arrival at
	// which the master declares an unanswered worker dead and
	// re-dispatches its partition to a survivor. Zero means
	// DefaultDetectTimeout.
	DetectTimeout time.Duration
	// Stalled lists nodes that compute StallFactor× slower than the
	// model's rate — the straggler script. A non-empty Stalled selects
	// the adaptive scheduler.
	Stalled []int
	// StallFactor is the stalled nodes' compute slowdown. Zero means
	// DefaultStallFactor; values below 1 are an error.
	StallFactor float64
	// Speculate enables speculative re-dispatch in the simulated master,
	// mirroring netrun.Options.Speculate: a partition whose master-
	// observed elapsed time exceeds the straggler threshold is cloned to
	// an idle node, the first answer wins, the loser is canceled and its
	// burned work recorded in Metrics.WastedWork.
	Speculate bool
	// SpecMultiplier scales the straggler threshold (multiple of the
	// median completed service time). Zero means
	// core.DefaultSpeculationMultiplier; values below 1 are an error.
	SpecMultiplier float64
	// SpecFloor bounds the straggler threshold from below. Zero means
	// core.DefaultSpeculationFloor; negative is an error.
	SpecFloor time.Duration
}

// DefaultDetectTimeout is the virtual failure-detection timeout used
// when Faults.DetectTimeout is zero.
const DefaultDetectTimeout = 10 * time.Second

// Validate checks the fault script against m nodes.
func (f Faults) Validate(m int) error {
	if f.DetectTimeout < 0 {
		return fmt.Errorf("cluster: negative detect timeout %v", f.DetectTimeout)
	}
	seen := make(map[int]bool, len(f.Dead))
	for _, d := range f.Dead {
		if d < 0 || d >= m {
			return fmt.Errorf("cluster: dead worker %d out of range [0,%d)", d, m)
		}
		if seen[d] {
			return fmt.Errorf("cluster: worker %d listed dead twice", d)
		}
		seen[d] = true
	}
	if len(seen) >= m {
		return fmt.Errorf("cluster: all %d workers dead, nothing can recover", m)
	}
	stalledSeen := make(map[int]bool, len(f.Stalled))
	for _, s := range f.Stalled {
		if s < 0 || s >= m {
			return fmt.Errorf("cluster: stalled worker %d out of range [0,%d)", s, m)
		}
		if stalledSeen[s] {
			return fmt.Errorf("cluster: worker %d listed stalled twice", s)
		}
		if seen[s] {
			return fmt.Errorf("cluster: worker %d both dead and stalled", s)
		}
		stalledSeen[s] = true
	}
	if f.StallFactor != 0 && f.StallFactor < 1 {
		return fmt.Errorf("cluster: stall factor %g below 1", f.StallFactor)
	}
	if f.SpecMultiplier != 0 && f.SpecMultiplier < 1 {
		return fmt.Errorf("cluster: speculation multiplier %g below 1", f.SpecMultiplier)
	}
	if f.SpecFloor < 0 {
		return fmt.Errorf("cluster: negative speculation floor %v", f.SpecFloor)
	}
	return nil
}

// adaptive reports whether the fault script needs the event-driven
// adaptive scheduler rather than the closed-form one-round formulas.
func (f Faults) adaptive() bool {
	return len(f.Stalled) > 0 || f.Speculate
}

// faultSchedule evaluates the MPQ schedule with scripted worker deaths:
// round one is MPQTime's schedule restricted to the survivors; each dead
// partition is then re-dispatched — the master's send NIC becomes free,
// waits for the detection timeout, re-serializes the request to a
// survivor chosen round-robin, and the survivor runs the extra partition
// after finishing its own share. With no deaths this reduces exactly to
// MPQTime.
func (m Model) faultSchedule(reqBytes, respBytes []int, units []uint64, dead map[int]bool, detect time.Duration) (total, maxWorker time.Duration) {
	n := len(reqBytes)
	var masterSendBusy, masterRecvBusy time.Duration
	starts := make([]time.Duration, n)
	arrivals := make([]time.Duration, n) // request arrival, before task setup
	for i, rb := range reqBytes {
		masterSendBusy += m.DispatchPerTask + m.transfer(rb)
		arrivals[i] = masterSendBusy + m.Latency
		starts[i] = arrivals[i] + m.TaskSetup
	}
	// Round one: responses from the survivors only.
	computeBusy := make([]time.Duration, n) // per-worker total busy time
	free := make([]time.Duration, n)        // when a survivor finishes its share
	survivors := make([]int, 0, n)
	for i := range reqBytes {
		if dead[i] {
			continue
		}
		survivors = append(survivors, i)
		computeT := m.compute(units[i])
		computeBusy[i] = computeT
		free[i] = starts[i] + computeT
		arrival := free[i] + m.Latency
		if arrival > masterRecvBusy {
			masterRecvBusy = arrival
		}
		masterRecvBusy += m.transfer(respBytes[i])
	}
	// Recovery round: re-dispatch each dead partition.
	sendFree := masterSendBusy
	si := 0
	for i := range reqBytes {
		if !dead[i] {
			continue
		}
		// Detection runs from the request's arrival at the (crashed)
		// worker, as documented on Faults.DetectTimeout — not from the end
		// of its task setup, which the crash may have interrupted.
		detectAt := arrivals[i] + detect
		if detectAt > sendFree {
			sendFree = detectAt
		}
		sendFree += m.DispatchPerTask + m.transfer(reqBytes[i])
		s := survivors[si%len(survivors)]
		si++
		begin := sendFree + m.Latency + m.TaskSetup
		if free[s] > begin {
			begin = free[s]
		}
		fin := begin + m.compute(units[i])
		free[s] = fin
		computeBusy[s] += m.compute(units[i])
		arrival := fin + m.Latency
		if arrival > masterRecvBusy {
			masterRecvBusy = arrival
		}
		masterRecvBusy += m.transfer(respBytes[i])
	}
	for _, cb := range computeBusy {
		if cb > maxWorker {
			maxWorker = cb
		}
	}
	return masterRecvBusy, maxWorker
}

// Metrics is the simulator's measurement record — one row of the paper's
// figures. It is an alias of core.ClusterMetrics so engine-agnostic
// answers can carry it without importing this package.
type Metrics = core.ClusterMetrics

// Result is the outcome of one simulated optimization.
type Result struct {
	Best     *plan.Node
	Frontier []*plan.Node // multi-objective only
	Metrics  Metrics
	// PerWorker lists each virtual worker's report in partition-ID
	// order; Elapsed is the worker's virtual compute time under the
	// model's work-unit rate.
	PerWorker []core.WorkerReport
	// MaxWorkerStats is the largest per-worker work counter set — the
	// critical path of skew-free parallel execution.
	MaxWorkerStats plan.Stats
}

// RunMPQ simulates Algorithm 1: the master serializes (query, partition
// ID, m) for each worker; workers decode their request bytes, run the
// real constrained DP, and serialize their partition-optimal plans back;
// the master decodes and FinalPrunes. One round, no worker↔worker
// traffic.
//
// faults scripts the failure model; the zero Faults is the failure-free
// run. Dead workers receive their request, crash, and never answer; the
// master detects each death DetectTimeout after the request arrived and
// re-dispatches the partition to a surviving worker (round-robin), which
// runs it after its own share. The chosen plans are bit-identical to the
// failure-free run — partitions are disjoint and workers stateless —
// while VirtualTime, traffic, and Redispatches expose the recovery
// overhead.
//
// Every virtual worker's dynamic program checks ctx, and the run returns
// an error wrapping ctx's cause once all workers have stopped.
func RunMPQ(ctx context.Context, model Model, q *query.Query, spec core.JobSpec, faults Faults) (*Result, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(q.N()); err != nil {
		return nil, err
	}
	nodeCount := model.Nodes
	if nodeCount <= 0 {
		nodeCount = spec.Workers
	}
	if err := faults.Validate(nodeCount); err != nil {
		return nil, err
	}
	q.Freeze()
	m := spec.Workers
	// The closed-form one-round formulas cover the classic layout; a
	// bounded node pool, per-node resources, stall scripts or
	// speculation need the event-driven adaptive scheduler (sched.go).
	adaptive := model.Nodes > 0 || len(model.Resources) > 0 || faults.adaptive()

	// Master builds and "sends" one request per worker. The master NIC
	// serializes outbound messages, so send completions are cumulative
	// (Theorem 5's O(m·bq) master time).
	type workerRun struct {
		req       []byte
		respBytes int
		resp      *wire.JobResponse
		err       error
	}
	runs := make([]workerRun, m)
	for partID := 0; partID < m; partID++ {
		b := wire.EncodeJobRequest(&wire.JobRequest{Spec: spec, PartID: partID, Query: q})
		runs[partID] = workerRun{req: b}
	}

	// Workers decode and run the real DP concurrently (wall-clock
	// speedup for the simulation itself; virtual time uses work units).
	var wg sync.WaitGroup
	for partID := 0; partID < m; partID++ {
		wg.Add(1)
		go func(partID int) {
			defer wg.Done()
			decoded, err := wire.DecodeJobRequest(runs[partID].req)
			if err != nil {
				runs[partID].err = err
				return
			}
			res, err := core.RunWorkerContext(ctx, decoded.Query, decoded.Spec, decoded.PartID)
			if err != nil {
				runs[partID].err = err
				return
			}
			resp := &wire.JobResponse{Plans: res.Plans, Stats: res.Stats}
			rb := wire.EncodeJobResponse(resp)
			// Decode on the master side to stay honest about the protocol.
			back, err := wire.DecodeJobResponse(rb)
			if err != nil {
				runs[partID].err = err
				return
			}
			runs[partID].resp = back
			runs[partID].respBytes = len(rb)
		}(partID)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: simulation canceled: %w", context.Cause(ctx))
	}

	dead := make(map[int]bool, len(faults.Dead))
	for _, d := range faults.Dead {
		dead[d] = true
	}
	detect := faults.DetectTimeout
	if detect == 0 {
		detect = DefaultDetectTimeout
	}

	met := Metrics{Rounds: 1, Redispatches: len(dead)}
	if len(dead) > 0 {
		met.Rounds = 2 // the re-dispatch adds one extra communication round
	}
	out := &Result{}
	frontiers := make([][]*plan.Node, 0, m)
	reqBytes := make([]int, m)
	respBytes := make([]int, m)
	units := make([]uint64, m)
	memo := make([]uint64, m)
	var planCount int
	for partID := 0; partID < m; partID++ {
		r := runs[partID]
		if r.err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", partID, r.err)
		}
		met.Bytes += uint64(len(r.req) + r.respBytes)
		met.Messages += 2
		if dead[partID] {
			// The job is sent twice: the crashed worker got the request but
			// never answered, and the survivor both receives the request
			// again and sends the one response.
			met.Bytes += uint64(len(r.req))
			met.Messages++
		}
		met.Work.Add(r.resp.Stats)
		if r.resp.Stats.MemoEntries > met.MaxMemoEntries {
			met.MaxMemoEntries = r.resp.Stats.MemoEntries
		}
		reqBytes[partID] = len(r.req)
		respBytes[partID] = r.respBytes
		units[partID] = r.resp.Stats.WorkUnits()
		memo[partID] = r.resp.Stats.MemoEntries
		frontiers = append(frontiers, r.resp.Plans)
		planCount += len(r.resp.Plans)
		out.PerWorker = append(out.PerWorker, core.WorkerReport{
			PartID: partID, Plans: len(r.resp.Plans), Stats: r.resp.Stats,
			Elapsed: model.compute(r.resp.Stats.WorkUnits()),
		})
		if r.resp.Stats.WorkUnits() > out.MaxWorkerStats.WorkUnits() {
			out.MaxWorkerStats = r.resp.Stats
		}
	}
	if adaptive {
		in := simInput{reqBytes: reqBytes, respBytes: respBytes, units: units, memo: memo}
		sim, err := model.adaptiveSchedule(in, faults)
		if err != nil {
			return nil, err
		}
		// The event simulation accounts traffic itself (clones, cancels
		// and re-dispatches included): override the per-partition tallies.
		met.Bytes = sim.bytes
		met.Messages = sim.messages
		met.Redispatches = sim.redispatches
		met.Rounds = 1
		if sim.redispatches > 0 {
			met.Rounds = 2
		}
		met.VirtualTime = sim.total + time.Duration(planCount)*model.FinalPrunePerPlan
		met.MaxWorkerTime = sim.maxWorker
		met.Speculations = sim.speculations
		met.WastedWork = sim.wasted
		if len(dead) > 0 || len(faults.Stalled) > 0 {
			clean, err := model.adaptiveSchedule(in, Faults{})
			if err != nil {
				return nil, err
			}
			met.RecoveryOverhead = sim.total - clean.total
		}
	} else {
		total, maxWorker := model.faultSchedule(reqBytes, respBytes, units, dead, detect)
		met.VirtualTime = total + time.Duration(planCount)*model.FinalPrunePerPlan
		met.MaxWorkerTime = maxWorker
		if len(dead) > 0 {
			cleanTotal, _ := model.MPQTime(reqBytes, respBytes, units)
			met.RecoveryOverhead = total - cleanTotal
		}
	}

	best, frontier, err := core.FinalPrune(spec, frontiers)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	out.Best, out.Frontier = best, frontier
	out.Metrics = met
	return out, nil
}
