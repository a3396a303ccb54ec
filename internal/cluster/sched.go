package cluster

import (
	"fmt"
	"slices"
	"time"

	"mpq/internal/core"
)

// This file is the simulator's virtual-time scheduler, driven entirely
// by the deterministic cluster model. It places partitions on nodes,
// serializes the master NIC, and mirrors the netrun master's failure
// detection, re-dispatch and speculation (through
// core.StragglerThreshold) as events. It does not model attempt
// budgets, worker exclusion, re-admission probes or work stealing.

// NodeResources describes one simulated node's capacities for the
// multi-resource cluster model (after Garofalakis & Ioannidis: a
// schedule should respect CPU, memory and network dimensions, not a
// scalar speed).
type NodeResources struct {
	// CPU is the node's relative compute speed: compute time for a
	// partition is divided by it. Must be positive; 1 is the baseline
	// rate (Model.NsPerWorkUnit per work unit).
	CPU float64
	// MemoryBytes caps the memo a partition's DP can hold resident.
	// A partition whose memo footprint (MemoEntries × an assumed entry
	// size) exceeds it computes slower by footprint/capacity — a crude
	// spill model. Zero means unlimited.
	MemoryBytes uint64
	// Bandwidth is the node's NIC throughput in bytes/second; transfers
	// to and from the node run at min(link, node) speed. Zero means the
	// model's link bandwidth.
	Bandwidth float64
}

// memoEntryBytes is the assumed resident size of one memo entry when
// checking a partition's footprint against NodeResources.MemoryBytes.
const memoEntryBytes = 64

// DefaultStallFactor is the compute slowdown of a node listed in
// Faults.Stalled when StallFactor is zero.
const DefaultStallFactor = 100

// simInput is the per-partition data the scheduler needs: exact message
// sizes, the DP's work meter, and its memo size (for the spill model).
type simInput struct {
	reqBytes  []int
	respBytes []int
	units     []uint64
	memo      []uint64
}

// simCopy is one dispatched instance of a partition: the original, a
// post-detection re-dispatch, or a speculative clone.
type simCopy struct {
	part     int
	node     int
	sendDone time.Duration // request fully serialized out of the master
	arrive   time.Duration // request arrival at the node
	start    time.Duration // compute start (post task setup)
	finish   time.Duration // compute completion at the node
	computeT time.Duration
	gen      int  // invalidates stale scheduled events
	canceled bool // master canceled it (speculative race loser)
	truncAt  time.Duration
	occupies bool // the cancel landed mid-compute, not pre-start
	done     bool // its response was processed by the master
}

// effFinish is when the copy stops occupying its node.
func (c *simCopy) effFinish() time.Duration {
	if c.canceled {
		return c.truncAt
	}
	return c.finish
}

const (
	evArrive = iota // a response reached the master NIC
	evDetect        // a dead node's silence crossed the detection timeout
	evSpec          // a straggler threshold may have been crossed
)

type simEvent struct {
	t    time.Duration
	kind int
	copy int
	gen  int
}

// schedule runs the event-driven simulation. It fills the traffic,
// redispatch, speculation and timing fields of the returned Metrics;
// VirtualTime is the master-observed completion of the last partition,
// before FinalPrune. Everything is deterministic: events break ties on
// (time, kind, copy index), and node choices on the lowest index.
func (m Model) schedule(in simInput, f Faults) (Metrics, error) {
	nParts := len(in.units)
	n := m.Nodes
	if n <= 0 {
		n = nParts
	}
	if len(m.Resources) > 0 && len(m.Resources) != n {
		return Metrics{}, fmt.Errorf("cluster: %d resource entries for %d nodes", len(m.Resources), n)
	}
	res := func(ni int) NodeResources {
		if len(m.Resources) > 0 {
			return m.Resources[ni]
		}
		return NodeResources{CPU: 1}
	}
	detect := f.DetectTimeout
	if detect == 0 {
		detect = DefaultDetectTimeout
	}
	stallFactor := f.StallFactor
	if stallFactor == 0 {
		stallFactor = DefaultStallFactor
	}
	dead := make([]bool, n)
	for _, d := range f.Dead {
		dead[d] = true
	}
	stalled := make([]bool, n)
	for _, s := range f.Stalled {
		stalled[s] = true
	}

	// estPerUnit is the master's cost estimate for one work unit of a
	// partition on a node: baseline rate over CPU speed, inflated by the
	// memory spill multiplier. Declared resources are knowable; faults
	// are not — the estimate deliberately ignores stalls and deaths.
	estPerUnit := func(part, ni int) float64 {
		r := res(ni)
		pu := m.NsPerWorkUnit / r.CPU
		if r.MemoryBytes > 0 {
			if fp := float64(in.memo[part]) * memoEntryBytes; fp > float64(r.MemoryBytes) {
				pu *= fp / float64(r.MemoryBytes)
			}
		}
		return pu
	}
	// perUnit is the node's actual effective rate, stall included.
	perUnit := func(part, ni int) float64 {
		pu := estPerUnit(part, ni)
		if stalled[ni] {
			pu *= stallFactor
		}
		return pu
	}
	computeT := func(part, ni int) time.Duration {
		return time.Duration(float64(in.units[part]) * perUnit(part, ni))
	}
	estimateT := func(part, ni int) time.Duration {
		return time.Duration(float64(in.units[part]) * estPerUnit(part, ni))
	}
	// nodeTransfer is a transfer capped by the node's NIC.
	nodeTransfer := func(bytes, ni int) time.Duration {
		bw := m.Bandwidth
		if r := res(ni); r.Bandwidth > 0 && r.Bandwidth < bw {
			bw = r.Bandwidth
		}
		return time.Duration(float64(bytes) / bw * float64(time.Second))
	}

	// Assignment: largest partition first (by the master's cost
	// estimate — the work meter), each to the node with the earliest
	// projected finish given what it already holds. Ties go to the node
	// whose index is the partition ID, then to the lowest index, so the
	// classic homogeneous layout puts partition i on node i, as
	// Faults.Dead and Faults.Stalled document. The master does not know
	// which nodes are dead or stalled, so they participate.
	order := make([]int, nParts)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if in.units[a] != in.units[b] {
			if in.units[a] > in.units[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
	avail := make([]time.Duration, n)
	var copies []*simCopy
	queues := make([][]int, n) // copy indices per node, dispatch order
	var sendFree time.Duration
	dispatchTo := func(part, ni int, at time.Duration) *simCopy {
		if at > sendFree {
			sendFree = at
		}
		sendFree += m.DispatchPerTask + nodeTransfer(in.reqBytes[part], ni)
		c := &simCopy{part: part, node: ni, sendDone: sendFree, computeT: computeT(part, ni)}
		c.arrive = c.sendDone + m.Latency
		prevFree := time.Duration(0)
		if q := queues[ni]; len(q) > 0 {
			prevFree = copies[q[len(q)-1]].effFinish()
		}
		c.start = max(c.arrive, prevFree) + m.TaskSetup
		c.finish = c.start + c.computeT
		copies = append(copies, c)
		queues[ni] = append(queues[ni], len(copies)-1)
		return c
	}
	for _, part := range order {
		best, bestFin := -1, time.Duration(0)
		for ni := 0; ni < n; ni++ {
			fin := avail[ni] + estimateT(part, ni)
			if best < 0 || fin < bestFin || (fin == bestFin && ni == part) {
				best, bestFin = ni, fin
			}
		}
		avail[best] += m.TaskSetup + estimateT(part, best)
		dispatchTo(part, best, 0)
	}

	out := Metrics{Rounds: 1}
	var events []simEvent
	push := func(e simEvent) { events = append(events, e) }
	pop := func() (simEvent, bool) {
		if len(events) == 0 {
			return simEvent{}, false
		}
		bi := 0
		for i := 1; i < len(events); i++ {
			e, b := events[i], events[bi]
			if e.t < b.t || (e.t == b.t && (e.kind < b.kind || (e.kind == b.kind && e.copy < b.copy))) {
				bi = i
			}
		}
		e := events[bi]
		events = append(events[:bi], events[bi+1:]...)
		return e, true
	}
	scheduleCopy := func(ci int) {
		c := copies[ci]
		out.Bytes += uint64(in.reqBytes[c.part])
		out.Messages++
		if dead[c.node] {
			push(simEvent{t: c.arrive + detect, kind: evDetect, copy: ci, gen: c.gen})
		} else {
			push(simEvent{t: c.finish + m.Latency, kind: evArrive, copy: ci, gen: c.gen})
		}
	}
	for ci := range copies {
		scheduleCopy(ci)
	}

	firstDone := make([]time.Duration, nParts)
	for i := range firstDone {
		firstDone[i] = -1
	}
	nDone := 0
	var svcTimes []time.Duration
	threshold := func() (time.Duration, bool) {
		return core.StragglerThreshold(svcTimes, f.SpecMultiplier, f.SpecFloor)
	}
	// liveCopies reports the in-flight (not done, not canceled) copies
	// of a partition.
	liveCopies := func(part int) []int {
		var out []int
		for ci, c := range copies {
			if c.part == part && !c.done && !c.canceled {
				out = append(out, ci)
			}
		}
		return out
	}
	nodeFree := func(ni int) time.Duration {
		var t time.Duration
		for _, ci := range queues[ni] {
			c := copies[ci]
			if c.canceled && !c.occupies {
				continue
			}
			if f := c.effFinish(); f > t {
				t = f
			}
		}
		return t
	}
	// recomputeNode replays a node's queue after a truncation shifted it.
	recomputeNode := func(ni int) {
		prevFree := time.Duration(0)
		for _, ci := range queues[ni] {
			c := copies[ci]
			if c.canceled {
				if c.occupies && c.truncAt > prevFree {
					prevFree = c.truncAt
				}
				continue
			}
			start := max(c.arrive, prevFree) + m.TaskSetup
			if start != c.start {
				c.start = start
				c.finish = start + c.computeT
				c.gen++
				if !c.done && !dead[ni] {
					push(simEvent{t: c.finish + m.Latency, kind: evArrive, copy: ci, gen: c.gen})
				}
			}
			prevFree = c.finish
		}
	}
	scheduleSpecChecks := func(now time.Duration) {
		if !f.Speculate {
			return
		}
		thr, ok := threshold()
		if !ok {
			return
		}
		for ci, c := range copies {
			if c.done || c.canceled || len(liveCopies(c.part)) > 1 || firstDone[c.part] >= 0 {
				continue
			}
			push(simEvent{t: max(now, c.sendDone+thr), kind: evSpec, copy: ci, gen: c.gen})
		}
	}
	cancelFrameBytes := 8 // header (4) + sequence number (4)

	var recvFree time.Duration
	for nDone < nParts {
		e, ok := pop()
		if !ok {
			return Metrics{}, fmt.Errorf("cluster: schedule stalled with %d of %d partitions unanswered", nParts-nDone, nParts)
		}
		c := copies[e.copy]
		if e.gen != c.gen || c.canceled || c.done {
			continue
		}
		switch e.kind {
		case evArrive:
			c.done = true
			done := max(e.t, recvFree) + nodeTransfer(in.respBytes[c.part], c.node)
			recvFree = done
			out.Bytes += uint64(in.respBytes[c.part])
			out.Messages++
			if firstDone[c.part] >= 0 {
				// A race loser that outran its cancel: full compute burned.
				out.WastedWork += in.units[c.part]
				continue
			}
			firstDone[c.part] = done
			nDone++
			out.VirtualTime = max(out.VirtualTime, done)
			svcTimes = append(svcTimes, done-c.sendDone)
			// Cancel any sibling still running the same partition.
			for _, li := range liveCopies(c.part) {
				l := copies[li]
				out.Bytes += uint64(cancelFrameBytes)
				out.Messages++
				cancelArrive := done + m.Latency
				if cancelArrive >= l.finish {
					continue // its response is already on the wire; it delivers and is counted wasted
				}
				l.canceled = true
				l.gen++
				l.truncAt = cancelArrive
				l.occupies = cancelArrive > l.start
				if l.occupies {
					burned := uint64(float64(cancelArrive-l.start) / perUnit(l.part, l.node))
					out.WastedWork += min(burned, in.units[l.part])
				}
				recomputeNode(l.node)
			}
			scheduleSpecChecks(done)
		case evDetect:
			if firstDone[c.part] >= 0 || len(liveCopies(c.part)) > 1 {
				continue // a clone beat the detector to it
			}
			c.canceled = true // the dead node burned nothing observable
			out.Redispatches++
			out.Rounds = 2 // the re-dispatch adds one communication round
			// Re-dispatch to the live node with the earliest projected finish.
			best, bestFin := -1, time.Duration(0)
			for ni := 0; ni < n; ni++ {
				if dead[ni] {
					continue
				}
				fin := max(nodeFree(ni), e.t) + m.TaskSetup + estimateT(c.part, ni)
				if best < 0 || fin < bestFin {
					best, bestFin = ni, fin
				}
			}
			nc := dispatchTo(c.part, best, e.t)
			scheduleCopy(len(copies) - 1)
			if f.Speculate {
				if thr, ok := threshold(); ok {
					push(simEvent{t: nc.sendDone + thr, kind: evSpec, copy: len(copies) - 1, gen: nc.gen})
				}
			}
		case evSpec:
			if firstDone[c.part] >= 0 || len(liveCopies(c.part)) > 1 {
				continue
			}
			thr, ok := threshold()
			if !ok {
				continue
			}
			if e.t < c.sendDone+thr {
				push(simEvent{t: c.sendDone + thr, kind: evSpec, copy: e.copy, gen: c.gen})
				continue
			}
			// Clone to the idle live node with the best projected finish.
			best, bestFin := -1, time.Duration(0)
			for ni := 0; ni < n; ni++ {
				if ni == c.node || dead[ni] || nodeFree(ni) > e.t {
					continue
				}
				fin := e.t + m.TaskSetup + estimateT(c.part, ni)
				if best < 0 || fin < bestFin {
					best, bestFin = ni, fin
				}
			}
			if best < 0 {
				continue // no idle node; a completion will re-trigger the check
			}
			out.Speculations++
			dispatchTo(c.part, best, e.t)
			scheduleCopy(len(copies) - 1)
		}
	}

	busy := make([]time.Duration, n)
	for _, c := range copies {
		switch {
		case c.canceled && c.occupies:
			busy[c.node] += c.truncAt - c.start
		case !c.canceled && !dead[c.node]:
			busy[c.node] += c.computeT
		}
	}
	for _, b := range busy {
		out.MaxWorkerTime = max(out.MaxWorkerTime, b)
	}
	return out, nil
}
