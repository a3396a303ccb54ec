package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"mpq"
	"mpq/internal/bitset"
	"mpq/internal/core"
	"mpq/internal/dp"
	"mpq/internal/mo"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/wire"
)

// replayRounds is how many times the traced run replays a workload's
// distinct jobs: enough rounds for about 32 replays in total.
func replayRounds(jobs int) int { return max(1, (32+jobs-1)/jobs) }

// levelWork is the DP work of one cardinality level, summed over a
// job's partitions (index k).
type levelWork []uint64

// replayJob re-runs one job layer by layer through the public functions
// of partition, dp, plan, core and mo — ForPartition, NewEngine,
// Enumerator.ForEachAdmissible with ProcessSet, Finish, FinalPrune,
// Merge — recording a span around each. The replay must reproduce the
// engine's fingerprint, frontier and work, or its numbers are rejected.
func replayJob(tr *tracer, rt *dp.Runtime, j *job, req int32) (levelWork, error) {
	q, js := j.q, j.spec
	n, m := q.N(), js.Workers
	root := tr.begin("replay", noSpan, req)
	defer tr.end(root)
	work := make(levelWork, n+1)
	frontiers := make([][]*plan.Node, 0, m)
	var total plan.Stats
	opts := js.DPOptions()
	opts.Runtime = rt
	for p := 0; p < m; p++ {
		id := tr.begin("partition.decode", root, req)
		cs, err := partition.ForPartition(js.Space, n, p, m)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("dp.setup", root, req)
		eng, err := dp.NewEngine(q, cs, opts)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		enum := cs.NewEnumerator()
		for k := 2; k <= n; k++ {
			before := eng.Stats().WorkUnits()
			id = tr.begin("dp.level", root, req)
			enum.ForEachAdmissible(k, func(u bitset.Set) bool {
				eng.ProcessSet(u)
				return true
			})
			tr.end(id)
			tr.update(id, func(s *span) { s.K = k })
			work[k] += eng.Stats().WorkUnits() - before
		}
		id = tr.begin("plan.clone", root, req)
		res, err := eng.Finish()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		frontiers = append(frontiers, res.Plans)
		total.Add(res.Stats)
	}
	id := tr.begin("core.final_prune", root, req)
	best, frontier, err := core.FinalPrune(js, frontiers)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if js.Objective.HasFrontier() {
		id = tr.begin("mo.merge", root, req)
		mo.Merge(frontiers, max(js.Alpha, 1))
		tr.end(id)
	}
	var fps []string
	for _, p := range frontier {
		fps = append(fps, mpq.PlanFingerprint(p))
	}
	if err := j.check(mpq.PlanFingerprint(best), best.Cost, fps, total.WorkUnits()); err != nil {
		return nil, fmt.Errorf("replay does not reproduce the engine: %w", err)
	}
	return work, nil
}

// replayWire encodes and decodes one job's wire request and response —
// the frames a wire client and the daemon exchange, and the encoding
// the plan cache keys on — and checks the decoded plans.
func replayWire(tr *tracer, j *job, req int32) error {
	root := tr.begin("wire", noSpan, req)
	defer tr.end(root)
	plans := []*mpq.Plan{j.ref.Best}
	if j.spec.Objective.HasFrontier() {
		plans = append(plans, j.ref.Frontier...)
	}
	id := tr.begin("wire.encode", root, req)
	rb := wire.EncodeJobRequest(&wire.JobRequest{Seq: 1, Spec: j.spec, Query: j.q})
	pb := wire.EncodeJobResponse(&wire.JobResponse{Seq: 1, Plans: plans, Stats: j.ref.Stats})
	tr.end(id)
	id = tr.begin("wire.decode", root, req)
	r, err := wire.DecodeJobRequest(rb)
	if err == nil {
		var resp *wire.JobResponse
		if resp, err = wire.DecodeJobResponse(pb); err == nil && mpq.PlanFingerprint(resp.Plans[0]) != j.fp {
			err = fmt.Errorf("decoded plan does not match the reference")
		}
	}
	tr.end(id)
	if err == nil && r.Query.N() != j.q.N() {
		err = fmt.Errorf("decoded query has %d tables, want %d", r.Query.N(), j.q.N())
	}
	return err
}

// replayRemote times core.RunWorkerContext — what a netrun worker
// computes for one partition — for every partition of the job.
func replayRemote(ctx context.Context, tr *tracer, j *job, req int32) ([]time.Duration, error) {
	root := tr.begin("remote", noSpan, req)
	defer tr.end(root)
	out := make([]time.Duration, j.spec.Workers)
	for p := range out {
		id := tr.begin("core.run_worker", root, req)
		t := time.Now()
		_, err := core.RunWorkerContext(ctx, j.q, j.spec, p)
		out[p] = time.Since(t)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replays holds the replay results of one traced run.
type replays struct {
	jobs      int                       // replayed jobs (rounds × distinct)
	levelWork levelWork                 // per level, summed over replayed jobs
	remote    map[int][][]time.Duration // job → rounds → per partition
	serial    []time.Duration           // SerialEngine latency per replayed job
}

// replayAll runs every replay over the workload's distinct jobs.
func replayAll(ctx context.Context, tr *tracer, jobs []*job, remote bool) (*replays, error) {
	r := &replays{remote: map[int][][]time.Duration{}, levelWork: make(levelWork, maxLevel+1)}
	rt := dp.NewRuntime()
	serial := mpq.NewSerialEngine()
	req := int32(0)
	for round := 0; round < replayRounds(len(jobs)); round++ {
		for ji, j := range jobs {
			work, err := replayJob(tr, rt, j, req)
			if err != nil {
				return nil, fmt.Errorf("job %d: %w", ji, err)
			}
			for k, w := range work {
				r.levelWork[k] += w
			}
			if err := replayWire(tr, j, req); err != nil {
				return nil, fmt.Errorf("job %d wire: %w", ji, err)
			}
			if remote {
				d, err := replayRemote(ctx, tr, j, req)
				if err != nil {
					return nil, fmt.Errorf("job %d remote: %w", ji, err)
				}
				r.remote[ji] = append(r.remote[ji], d)
			}
			t := time.Now()
			if _, err := serial.Optimize(ctx, j.q, j.spec); err != nil {
				return nil, fmt.Errorf("job %d serial: %w", ji, err)
			}
			r.serial = append(r.serial, time.Since(t))
			r.jobs++
			req++
		}
	}
	return r, nil
}

// remoteMedian is the median replayed compute time of one partition.
func (r *replays) remoteMedian(job, part int) time.Duration {
	var ds []time.Duration
	for _, round := range r.remote[job] {
		ds = append(ds, round[part])
	}
	slices.Sort(ds)
	return ds[len(ds)/2]
}
