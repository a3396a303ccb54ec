package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mpq/internal/partition"
)

// maxLevel is the largest DP cardinality level any workload reaches.
const maxLevel = 14

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric, grouped by the repository
// module (layer) it measures. Every traced run prints all of them; a
// layer that is not on a workload's path reads 0 and the run says why.
func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"server.front_us_p50", "us"}, {"server.queue_us_p50", "us"}, {"server.queue_us_p90", "us"},
		{"server.self_ms_per_op", "ms"},
		{"cache.hit_ratio", "ratio"}, {"cache.evictions_per_req", "1/op"}, {"cache.collapses", "count"},
		{"cache.hit_us_p50", "us"}, {"cache.miss_ms_p50", "ms"}, {"cache.self_ms_per_op", "ms"},
		{"core.engine_ms_p50", "ms"}, {"core.master_overhead_ms_p50", "ms"}, {"core.straggler_ratio", "ratio"},
		{"core.final_prune_us", "us"}, {"core.cpu_parallelism", "ratio"}, {"core.self_ms_per_op", "ms"},
		{"partition.decode_us", "us"}, {"partition.admissible_sets", "count"}, {"partition.self_ms_per_op", "ms"},
		{"dp.work_units_per_op", "count"}, {"dp.work_inflation", "ratio"}, {"dp.max_worker_share", "ratio"},
		{"dp.ns_per_work_unit", "ns"}, {"dp.setup_ms", "ms"}, {"dp.plans_kept_ratio", "ratio"},
		{"dp.memo_entries_max", "count"}, {"dp.serial_ref_ms_p50", "ms"}, {"dp.self_ms_per_op", "ms"},
	}
	for k := 2; k <= maxLevel; k++ {
		ms = append(ms, layerMetric{fmt.Sprintf("dp.level_ms.%d", k), "ms"})
	}
	for k := 2; k <= maxLevel; k++ {
		ms = append(ms, layerMetric{fmt.Sprintf("dp.level_work.%d", k), "count"})
	}
	return append(ms,
		layerMetric{"plan.clone_us", "us"}, layerMetric{"plan.self_ms_per_op", "ms"},
		layerMetric{"mo.frontier_plans", "count"}, layerMetric{"mo.merge_us", "us"}, layerMetric{"mo.self_ms_per_op", "ms"},
		layerMetric{"wire.request_bytes", "B"}, layerMetric{"wire.response_bytes", "B"},
		layerMetric{"wire.encode_us", "us"}, layerMetric{"wire.decode_us", "us"}, layerMetric{"wire.self_ms_per_op", "ms"},
		layerMetric{"netrun.partition_rtt_ms_p50", "ms"}, layerMetric{"netrun.remote_compute_ms_p50", "ms"},
		layerMetric{"netrun.overhead_ms_p50", "ms"}, layerMetric{"netrun.net_kb_per_op", "KiB"},
		layerMetric{"netrun.messages_per_op", "count"}, layerMetric{"netrun.dials_per_op", "count"},
		layerMetric{"netrun.redispatched", "count"}, layerMetric{"netrun.self_ms_per_op", "ms"},
		layerMetric{"trace.latency_p50_ratio", "ratio"}, layerMetric{"trace.spans_per_op", "count"},
	)
}

// exactCounts computes the deterministic counters from the reference
// answers, per distinct job. They must repeat exactly across runs of
// one build at one seed.
func exactCounts(jobs []*job) map[string]float64 {
	var work, serial, maxw, kept, pruned, adm, memo, netBytes, msgs, dials, req, resp, moJobs, frontier float64
	for _, j := range jobs {
		s := j.ref.Stats
		work += float64(s.WorkUnits())
		serial += float64(j.serialWork)
		maxw += float64(j.ref.MaxWorkerStats.WorkUnits())
		kept += float64(s.PlansKept)
		pruned += float64(s.PlansPruned)
		memo = max(memo, float64(s.MemoEntries))
		for p := 0; p < j.spec.Workers; p++ {
			if cs, err := partition.ForPartition(j.spec.Space, j.q.N(), p, j.spec.Workers); err == nil {
				adm += float64(cs.CountAdmissible())
			}
		}
		netBytes += float64(j.net.BytesSent + j.net.BytesReceived)
		msgs += float64(j.net.Messages)
		dials += float64(j.net.Dials)
		req += float64(j.reqBytes)
		resp += float64(j.respBytes)
		if j.spec.Objective.HasFrontier() {
			moJobs++
			frontier += float64(len(j.ref.Frontier))
		}
	}
	n := float64(len(jobs))
	c := map[string]float64{
		"dp.work_units_per_op":      work / n,
		"dp.work_inflation":         work / serial,
		"dp.max_worker_share":       maxw / work,
		"dp.plans_kept_ratio":       kept / (kept + pruned),
		"dp.memo_entries_max":       memo,
		"partition.admissible_sets": adm / n,
		"netrun.net_kb_per_op":      netBytes / 1024 / n,
		"netrun.messages_per_op":    msgs / n,
		"netrun.dials_per_op":       dials / n,
		"wire.request_bytes":        req / n,
		"wire.response_bytes":       resp / n,
		"mo.frontier_plans":         0,
	}
	if moJobs > 0 {
		c["mo.frontier_plans"] = frontier / moJobs
	}
	return c
}

// exeTag identifies the running build, so exact-count records of one
// build are never compared with another's.
func exeTag() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}

// checkCounts compares the exact counts with the record an earlier run
// of this build at this seed left, or leaves the record.
func checkCounts(dir, workload string, seed int64, counts map[string]float64) error {
	tag, err := exeTag()
	if err != nil {
		return fmt.Errorf("exact counts: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("counts-%s-seed%d-%s.json", workload, seed, tag))
	prev, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		b, err := json.Marshal(counts)
		if err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return fmt.Errorf("exact counts: %w", err)
	}
	var old map[string]float64
	if err := json.Unmarshal(prev, &old); err != nil {
		return fmt.Errorf("exact counts: %s: %w", path, err)
	}
	var diffs []string
	for k, v := range counts {
		if ov, ok := old[k]; !ok || ov != v {
			diffs = append(diffs, fmt.Sprintf("%s=%v (earlier run: %v)", k, v, ov))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("exact counts differ from an earlier run at this seed: %s", strings.Join(diffs, ", "))
	}
	return nil
}

// tracedRun repeats the timed arrivals with the decorators recording
// spans, replays the distinct jobs layer by layer, writes every span to
// spansPath, and computes the per-layer metrics. untraced is the run's
// untraced phase: the tracing overhead is measured against it.
func tracedRun(ctx context.Context, sys *system, untraced *phase, counts map[string]float64, spansPath string) (map[string]metric, *phase, []string, error) {
	tph := sys.runPhase(sys.timed, true)
	live := sys.tr.snapshot()
	link(live, "request")
	sys.tr.reset()
	tcp := sys.tcp()
	rp, rerr := replayAll(ctx, sys.tr, sys.jobs, tcp)
	rspans := sys.tr.snapshot()

	all := append([]span(nil), live...)
	for _, s := range rspans {
		if s.Parent != noSpan {
			s.Parent += int32(len(live))
		}
		all = append(all, s)
	}
	werr := writeSpans(spansPath, all)

	out := map[string]metric{}
	for _, m := range layerMetrics() {
		out[m.name] = metric{0, m.unit}
	}
	put := func(name string, v float64) {
		m, ok := out[name]
		if !ok {
			panic("perfbench: undeclared per-layer metric " + name)
		}
		m.Value = v
		out[name] = m
	}
	for k, v := range counts {
		put(k, v)
	}
	reqs := float64(len(tph.recs))
	var errs []error

	// server: the client's round trip outside the layer below the
	// daemon, and the admission-queue wait the daemon stamped.
	var front, queue []time.Duration
	outer := map[int32]int32{}
	for i, s := range live {
		if s.Parent != noSpan && live[s.Parent].Name == "request" {
			outer[s.Parent] = int32(i)
		}
	}
	for _, r := range tph.recs {
		c, ok := outer[r.span]
		if !ok || sys.root != "server" {
			continue
		}
		rs, cs := live[r.span], live[c]
		front = append(front, (rs.End-rs.Start)-(cs.End-cs.Start))
		if cs.HasEnq {
			queue = append(queue, cs.Start-cs.Enq)
		}
	}
	if len(front) > 0 {
		put("server.front_us_p50", us(quantile(front, 0.5)))
		put("server.queue_us_p50", us(quantile(queue, 0.5)))
		put("server.queue_us_p90", us(quantile(queue, 0.9)))
	}

	// cache: hit and miss service times as the daemon saw them.
	if sys.cache != nil {
		var hit, miss []time.Duration
		for _, s := range live {
			if s.Name != "cache" || s.ans == nil || s.ans.Cache == nil {
				continue
			}
			switch {
			case s.ans.Cache.Hit:
				hit = append(hit, s.End-s.Start)
			case !s.ans.Cache.Collapsed:
				miss = append(miss, s.End-s.Start)
			}
		}
		c := tph.cache
		put("cache.hit_ratio", float64(c.Hits)/float64(max(1, c.Hits+c.Misses+c.Collapses)))
		put("cache.evictions_per_req", float64(c.Evictions)/reqs)
		put("cache.collapses", float64(c.Collapses))
		put("cache.hit_us_p50", us(quantile(hit, 0.5)))
		put("cache.miss_ms_p50", ms(quantile(miss, 0.5)))
	}

	// core and netrun: the engine below the daemon or cache.
	var eng, overhead, rtts, netOver []time.Duration
	var strag []float64
	redispatched := 0
	for _, s := range live {
		if (s.Name != "core" && s.Name != "netrun") || s.ans == nil {
			continue
		}
		a := s.ans
		eng = append(eng, s.End-s.Start)
		overhead = append(overhead, a.Elapsed-a.MaxWorkerElapsed)
		var ws []time.Duration
		for _, w := range a.PerWorker {
			ws = append(ws, w.Elapsed)
		}
		if med := quantile(ws, 0.5); med > 0 {
			strag = append(strag, float64(quantile(ws, 1))/float64(med))
		}
		if s.Name != "netrun" || s.Req == noSpan {
			continue
		}
		ji := tph.recs[s.Req].job
		if a.Net == nil || *a.Net != sys.jobs[ji].net {
			errs = append(errs, fmt.Errorf("job %d: TCP traffic %+v differs from the set-up pass %+v", ji, a.Net, sys.jobs[ji].net))
		}
		if a.Net != nil {
			redispatched += a.Net.Redispatched
		}
		for _, w := range a.PerWorker {
			rtts = append(rtts, w.Elapsed)
			if rp != nil {
				netOver = append(netOver, w.Elapsed-rp.remoteMedian(ji, w.PartID))
			}
		}
	}
	put("core.engine_ms_p50", ms(quantile(eng, 0.5)))
	put("core.master_overhead_ms_p50", ms(quantile(overhead, 0.5)))
	if len(strag) > 0 {
		put("core.straggler_ratio", medianFloat(strag))
	}
	put("core.cpu_parallelism", untraced.cpu.Seconds()/untraced.wall.Seconds())
	if tcp {
		put("netrun.partition_rtt_ms_p50", ms(quantile(rtts, 0.5)))
		put("netrun.overhead_ms_p50", ms(quantile(netOver, 0.5)))
		put("netrun.redispatched", float64(redispatched))
	}

	// Self time of the live layers, per request.
	liveLayer := map[string]string{"request": sys.root, "cache": "cache", "core": "core", "netrun": "netrun"}
	for name, d := range selfTimes(live) {
		if l := liveLayer[name]; l != "" && l != "client" {
			put(l+".self_ms_per_op", ms(d)/reqs)
		}
	}

	// Replayed layers, per replayed job.
	if rp != nil {
		per := float64(rp.jobs)
		sum := map[string]time.Duration{}
		level := make([]time.Duration, maxLevel+1)
		var remote []time.Duration
		merges := 0
		for _, s := range rspans {
			d := s.End - s.Start
			sum[s.Name] += d
			switch s.Name {
			case "dp.level":
				level[s.K] += d
			case "core.run_worker":
				remote = append(remote, d)
			case "mo.merge":
				merges++
			}
		}
		put("partition.decode_us", us(sum["partition.decode"])/per)
		put("dp.setup_ms", ms(sum["dp.setup"])/per)
		put("plan.clone_us", us(sum["plan.clone"])/per)
		put("core.final_prune_us", us(sum["core.final_prune"])/per)
		put("wire.encode_us", us(sum["wire.encode"])/per)
		put("wire.decode_us", us(sum["wire.decode"])/per)
		if merges > 0 {
			put("mo.merge_us", us(sum["mo.merge"])/float64(merges))
		}
		var totalLevel time.Duration
		var totalWork uint64
		for k := 2; k <= maxLevel; k++ {
			put(fmt.Sprintf("dp.level_ms.%d", k), ms(level[k])/per)
			put(fmt.Sprintf("dp.level_work.%d", k), float64(rp.levelWork[k])/per)
			totalLevel += level[k]
			totalWork += rp.levelWork[k]
		}
		put("dp.ns_per_work_unit", float64(totalLevel)/float64(totalWork))
		put("dp.serial_ref_ms_p50", ms(quantile(rp.serial, 0.5)))
		if tcp {
			put("netrun.remote_compute_ms_p50", ms(quantile(remote, 0.5)))
		}
		replayLayer := map[string]string{
			"partition.decode": "partition", "dp.setup": "dp", "dp.level": "dp", "plan.clone": "plan",
			"mo.merge": "mo", "wire.encode": "wire", "wire.decode": "wire",
		}
		self := map[string]time.Duration{}
		for name, d := range selfTimes(rspans) {
			if l := replayLayer[name]; l != "" {
				self[l] += d
			}
		}
		for l, d := range self {
			put(l+".self_ms_per_op", ms(d)/per)
		}
	}

	put("trace.latency_p50_ratio", float64(quantile(tph.latencies(), 0.5))/float64(quantile(untraced.latencies(), 0.5)))
	put("trace.spans_per_op", float64(len(live))/reqs)

	for _, err := range []error{rerr, werr} {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return out, tph, sys.absent(), errors.Join(errs...)
}

// tcp reports whether the workload's engine is the TCP engine.
func (sys *system) tcp() bool { return sys.root == "server" && sys.cache == nil }

// absent explains the per-layer metrics that read 0 on this workload.
func (sys *system) absent() []string {
	var notes []string
	if sys.root != "server" {
		notes = append(notes, "server.*: no daemon on this path (the client calls the engine directly)")
	}
	if sys.cache == nil {
		notes = append(notes, "cache.*: no plan cache on this path")
	}
	if !sys.tcp() {
		notes = append(notes, "netrun.* (except exact counts, which are 0): no TCP workers on this path")
	}
	maxN, frontier := 0, false
	for _, j := range sys.jobs {
		maxN = max(maxN, j.q.N())
		frontier = frontier || j.spec.Objective.HasFrontier()
	}
	if !frontier {
		notes = append(notes, "mo.*: no multi-objective jobs, so no Pareto merge")
	}
	if maxN < maxLevel {
		notes = append(notes, fmt.Sprintf("dp.level_*.%d-%d: queries have at most %d tables", maxN+1, maxLevel, maxN))
	}
	return notes
}

// report prints the human-readable end-to-end summary.
func report(w io.Writer, def *workloadDef, seed int64, sys *system, ph *phase, e2e map[string]metric, setups []float64, counts map[string]float64) {
	n := len(ph.recs)
	fmt.Fprintf(w, "perfbench %s seed=%d: closed loop, %d client(s), %d requests over %d distinct jobs\n",
		def.name, seed, sys.clients, n, len(sys.jobs))
	printMetrics(w, e2e)
	fmt.Fprintf(w, "  %-28s %12d\n", "latency samples", n)
	if n >= 1000 {
		fmt.Fprintf(w, "  %-28s %12.4f ms  (%d samples)\n", "latency_p99_ms", ms(quantile(ph.latencies(), 0.99)), n)
	} else {
		fmt.Fprintf(w, "  %-28s not reported: %d samples, needs ≥ 1000\n", "latency_p99_ms", n)
	}
	fmt.Fprintf(w, "  %-28s %12.4f     (%d failed of %d)\n", "error_rate", float64(ph.failed)/float64(n), ph.failed, n)
	fmt.Fprintf(w, "  %-28s %v\n", "setup_s (each set-up)", setups)
	fmt.Fprintf(w, "  exact counts (per distinct job):\n")
	cm := map[string]metric{}
	for k, v := range counts {
		cm[k] = metric{Value: v}
	}
	printMetrics(w, cm)
}

// reportLayers prints the per-layer metrics and why some read 0.
func reportLayers(w io.Writer, name string, untraced, traced *phase, lm map[string]metric, notes []string) {
	fmt.Fprintf(w, "perfbench %s traced run, per-layer metrics:\n", name)
	printMetrics(w, lm)
	fmt.Fprintf(w, "  tracing overhead: latency_p50_ms %.4f traced vs %.4f untraced (ratio %.4f)\n",
		ms(quantile(traced.latencies(), 0.5)), ms(quantile(untraced.latencies(), 0.5)), lm["trace.latency_p50_ratio"].Value)
	for _, n := range notes {
		fmt.Fprintf(w, "  absent: %s\n", n)
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %12.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
