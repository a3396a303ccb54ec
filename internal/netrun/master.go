package netrun

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"mpq/internal/core"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/wire"
)

// Defaults for Options fields left at zero.
const (
	DefaultTimeout           = 2 * time.Minute
	DefaultMaxAttempts       = 3
	DefaultMaxWorkerFailures = 2
	// cancelWriteTimeout bounds the advisory CancelRequest frame write
	// to a speculative loser; a peer too wedged to accept 8 bytes loses
	// its connection on the next use anyway.
	cancelWriteTimeout = 2 * time.Second
)

// Options configures a Master beyond its worker addresses.
type Options struct {
	// Weights are per-worker performance weights: when there are more
	// plan-space partitions than workers, worker i is assigned a share of
	// partitions proportional to Weights[i] — the paper's provision for
	// heterogeneous nodes (§4.1, footnote 1). nil means homogeneous.
	Weights []float64
	// Timeout bounds one job attempt end-to-end: dialing the worker,
	// sending the request, worker compute, and receiving the response.
	// A context deadline shorter than the remaining Timeout takes
	// precedence (see Master.OptimizeContext). Zero means
	// DefaultTimeout; negative is an error.
	Timeout time.Duration
	// MaxAttempts is the per-partition attempt budget: a partition that
	// fails this many times (across all workers) aborts the query. Zero
	// means DefaultMaxAttempts; negative is an error.
	MaxAttempts int
	// MaxWorkerFailures is the number of consecutive job failures after
	// which a worker is excluded from the rest of the query. Zero means
	// DefaultMaxWorkerFailures; negative is an error.
	MaxWorkerFailures int
	// Speculate enables adaptive scheduling: an idle worker steals queued
	// partitions from loaded peers, and a partition whose elapsed time
	// exceeds the straggler threshold (see SpeculationMultiplier) is
	// cloned to an idle worker. The first answer wins; the loser is
	// canceled with a CancelRequest frame and its late response — carrying
	// a sequence number for a partition already aggregated — is discarded.
	// Off by default: the static schedule is then byte-for-byte the
	// pre-adaptive behavior.
	Speculate bool
	// SpeculationMultiplier scales the straggler threshold: a partition
	// is speculated once its elapsed time exceeds Multiplier × the median
	// service time of its query's completed partitions. Zero means
	// core.DefaultSpeculationMultiplier; values below 1 (which would speculate
	// faster-than-median partitions) are an error.
	SpeculationMultiplier float64
	// SpeculationFloor bounds the straggler threshold from below. Zero
	// means core.DefaultSpeculationFloor; negative is an error.
	SpeculationFloor time.Duration
	// ReadmitAfter enables re-admission probes: a worker excluded by
	// MaxWorkerFailures is sent a low-priority probe clone of a pending
	// partition after this backoff (doubling after every failed probe)
	// and rejoins the pool if it answers correctly. Zero disables probes
	// — excluded workers then stay excluded for the rest of the batch,
	// the pre-adaptive behavior. Negative is an error.
	ReadmitAfter time.Duration
}

// NetStats records measured traffic of one distributed optimization.
// It is an alias of core.NetStats so engine-agnostic answers can carry
// it without importing the transport.
type NetStats = core.NetStats

// Job is one (query, job spec) unit of a batch: OptimizeBatch pipelines
// the plan-space partitions of many independent queries through one
// pool of keep-alive worker connections.
type Job struct {
	Query *query.Query
	Spec  core.JobSpec
}

// Master coordinates remote workers.
type Master struct {
	addrs             []string
	weights           []float64
	timeout           time.Duration
	maxAttempts       int
	maxWorkerFailures int
	speculate         bool
	specMultiplier    float64
	specFloor         time.Duration
	readmitAfter      time.Duration
}

// NewMasterWithOptions returns a master with full fault-tolerance
// configuration.
func NewMasterWithOptions(addrs []string, opts Options) (*Master, error) {
	if len(addrs) == 0 {
		return nil, errors.New("netrun: no worker addresses")
	}
	seen := make(map[string]struct{}, len(addrs))
	for _, a := range addrs {
		if _, dup := seen[a]; dup {
			return nil, fmt.Errorf("netrun: duplicate worker address %q", a)
		}
		seen[a] = struct{}{}
	}
	if opts.Weights != nil {
		if len(opts.Weights) != len(addrs) {
			return nil, fmt.Errorf("netrun: %d weights for %d workers", len(opts.Weights), len(addrs))
		}
		for i, w := range opts.Weights {
			if !(w > 0) {
				return nil, fmt.Errorf("netrun: weight %d is %g, must be positive", i, w)
			}
		}
	}
	if opts.Timeout < 0 {
		return nil, fmt.Errorf("netrun: negative timeout %v", opts.Timeout)
	}
	if opts.MaxAttempts < 0 {
		return nil, fmt.Errorf("netrun: negative attempt budget %d", opts.MaxAttempts)
	}
	if opts.MaxWorkerFailures < 0 {
		return nil, fmt.Errorf("netrun: negative worker failure limit %d", opts.MaxWorkerFailures)
	}
	if opts.SpeculationMultiplier != 0 && opts.SpeculationMultiplier < 1 {
		return nil, fmt.Errorf("netrun: speculation multiplier %g below 1", opts.SpeculationMultiplier)
	}
	if opts.SpeculationFloor < 0 {
		return nil, fmt.Errorf("netrun: negative speculation floor %v", opts.SpeculationFloor)
	}
	if opts.ReadmitAfter < 0 {
		return nil, fmt.Errorf("netrun: negative re-admission backoff %v", opts.ReadmitAfter)
	}
	ms := &Master{
		addrs:             addrs,
		weights:           opts.Weights,
		timeout:           opts.Timeout,
		maxAttempts:       opts.MaxAttempts,
		maxWorkerFailures: opts.MaxWorkerFailures,
		speculate:         opts.Speculate,
		specMultiplier:    opts.SpeculationMultiplier,
		specFloor:         opts.SpeculationFloor,
		readmitAfter:      opts.ReadmitAfter,
	}
	if ms.timeout == 0 {
		ms.timeout = DefaultTimeout
	}
	if ms.maxAttempts == 0 {
		ms.maxAttempts = DefaultMaxAttempts
	}
	if ms.maxWorkerFailures == 0 {
		ms.maxWorkerFailures = DefaultMaxWorkerFailures
	}
	return ms, nil
}

// assignPartitions splits partition IDs 0..m-1 over the workers. With
// nil weights it round-robins; with weights it hands out contiguous
// shares proportional to each worker's performance (largest-remainder
// rounding, every worker with weight > 0 and m >= workers gets at least
// one partition when possible).
func (ms *Master) assignPartitions(m int) [][]int {
	k := len(ms.addrs)
	out := make([][]int, k)
	if ms.weights == nil {
		for p := 0; p < m; p++ {
			out[p%k] = append(out[p%k], p)
		}
		return out
	}
	var total float64
	for _, w := range ms.weights {
		total += w
	}
	// Largest-remainder apportionment of m partitions.
	counts := make([]int, k)
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, k)
	assigned := 0
	for i, w := range ms.weights {
		exact := float64(m) * w / total
		counts[i] = int(exact)
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
		assigned += counts[i]
	}
	sort.Slice(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; assigned < m; i++ {
		counts[rems[i%k].idx]++
		assigned++
	}
	p := 0
	for i, c := range counts {
		for j := 0; j < c; j++ {
			out[i] = append(out[i], p)
			p++
		}
	}
	return out
}

// unit is one (query, partition, retry state) piece of work.
type unit struct {
	qi       int   // index into the batch's jobs
	partID   int   // plan-space partition within that query
	attempts int   // failed attempts so far
	failedOn []int // workers that already failed this unit
}

// ignoredFrame is one well-formed frame the master discarded for a
// stale sequence number, attributed to the query whose request
// originally produced it (qi) so per-query traffic accounting stays
// exact even when a duplicate surfaces while another query's unit is
// in flight on the same connection.
type ignoredFrame struct {
	qi    int
	bytes uint64
}

// jobResult is one job attempt's outcome, reported by a worker loop.
type jobResult struct {
	worker  int
	unit    unit
	resp    *wire.JobResponse
	elapsed time.Duration
	sent    uint64
	rcvd    uint64
	msgs    int
	dialed  bool // this attempt opened a new connection
	ignored []ignoredFrame
	err     error
	fatal   bool // deterministic failure: retrying cannot help
}

// connReg tracks the master's live connections so an aborting
// coordinator can force-close them and unblock worker loops stuck in
// read; ctx cancellation aborts dials still in flight (a dialing
// connection is not yet in the registry).
type connReg struct {
	ctx    context.Context
	cancel context.CancelFunc
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func (r *connReg) add(c net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		c.Close()
		return
	}
	r.conns[c] = struct{}{}
}

func (r *connReg) drop(c net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.conns, c)
}

func (r *connReg) closeAll() {
	r.cancel()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for c := range r.conns {
		c.Close()
	}
	r.conns = map[net.Conn]struct{}{}
}

// connState is one worker loop's keep-alive connection plus its
// request sequence counter. The counter survives redials — sequence
// numbers only ever need to be unique per connection, and a
// monotonically increasing one is unique per master lifetime. owner
// maps every sequence number sent on the current connection to the
// query it belongs to, so a late duplicate can be billed to the right
// query; it is reset on redial (a fresh stream cannot replay old
// frames).
//
// mu serializes writes on the connection and guards the conn pointer
// and inflight field: the coordinator goroutine injects advisory
// CancelRequest frames (cancelInFlight) into a stream the worker loop
// otherwise owns. seq and owner stay worker-loop-private.
type connState struct {
	mu       sync.Mutex
	conn     net.Conn
	inflight uint32 // seq awaiting a response; 0 = none
	seq      uint32
	owner    map[uint32]int
}

// cancelInFlight asks the worker to abort the request currently
// awaiting a response on this connection — the master no longer wants
// the answer (a speculative clone of the same partition won the race).
// Advisory and non-blocking for the caller beyond a short write: if the
// write fails or stalls, the worker simply finishes the job and its
// late response is discarded as stale. A partial write can desync the
// stream; the worker then answers the next request with a decode
// error, which the transport-failure path already handles by redialing.
// Returns the frame bytes put on the wire (0 if nothing was sent) so
// the caller can bill the traffic.
func (st *connState) cancelInFlight() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.conn == nil || st.inflight == 0 {
		return 0
	}
	payload := wire.EncodeCancelRequest(&wire.CancelRequest{Seq: st.inflight})
	st.conn.SetWriteDeadline(time.Now().Add(cancelWriteTimeout))
	if err := WriteFrame(st.conn, payload); err != nil {
		return 0
	}
	return len(payload) + 4
}

// workerLoop executes jobs for one worker address: it dials lazily,
// keeps the connection across jobs (and across the queries of a
// batch), and reports every outcome on results. At most one job is in
// flight per worker, so a results buffer with one slot per worker can
// never block a loop after the coordinator stops receiving. st is
// shared with the coordinator, which uses it only through
// cancelInFlight.
func (ms *Master) workerLoop(ctx context.Context, ni int, jobs []Job, give <-chan unit, results chan<- jobResult, reg *connReg, st *connState) {
	defer func() {
		st.mu.Lock()
		conn := st.conn
		st.conn = nil
		st.mu.Unlock()
		if conn != nil {
			reg.drop(conn)
			conn.Close()
		}
	}()
	for u := range give {
		results <- ms.runJob(ctx, ni, jobs[u.qi], u, st, reg)
	}
}

// runJob performs one job attempt under the per-job deadline: the
// configured Timeout, tightened by the context deadline if that comes
// first.
func (ms *Master) runJob(ctx context.Context, ni int, job Job, u unit, st *connState, reg *connReg) jobResult {
	addr := ms.addrs[ni]
	res := jobResult{worker: ni, unit: u}
	t0 := time.Now()
	deadline := t0.Add(ms.timeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(deadline) {
		deadline = cd
	}
	// Whatever the outcome, the request is no longer awaiting a response
	// once runJob returns — late cancels must not target the next job's
	// sequence number.
	defer func() {
		st.mu.Lock()
		st.inflight = 0
		st.mu.Unlock()
	}()
	// fail records a transport-level error and drops the connection: the
	// stream may be out of sync, and the next attempt should redial.
	fail := func(err error) jobResult {
		res.err = err
		res.elapsed = time.Since(t0)
		st.mu.Lock()
		conn := st.conn
		st.conn = nil
		st.inflight = 0
		st.mu.Unlock()
		if conn != nil {
			reg.drop(conn)
			conn.Close()
			st.owner = nil // a fresh stream cannot replay old frames
		}
		return res
	}
	if st.conn == nil {
		// Dialing happens outside the mutex — a nil conn means nothing is
		// in flight, so cancelInFlight correctly no-ops meanwhile.
		d := net.Dialer{Deadline: deadline}
		c, err := d.DialContext(reg.ctx, "tcp", addr)
		if err != nil {
			return fail(fmt.Errorf("dial %s: %w", addr, err))
		}
		st.mu.Lock()
		st.conn = c
		st.mu.Unlock()
		st.owner = map[uint32]int{}
		res.dialed = true
		reg.add(c)
	}
	conn := st.conn
	st.seq++
	seq := st.seq
	st.owner[seq] = u.qi
	payload := wire.EncodeJobRequest(&wire.JobRequest{Seq: seq, Spec: job.Spec, PartID: u.partID, Query: job.Query})
	// The request write and the in-flight marker share one critical
	// section so a concurrent cancel frame can never interleave with (or
	// target a request that precedes) the request bytes.
	st.mu.Lock()
	conn.SetDeadline(deadline)
	werr := WriteFrame(conn, payload)
	if werr == nil {
		st.inflight = seq
	}
	st.mu.Unlock()
	if werr != nil {
		return fail(fmt.Errorf("send to %s: %w", addr, werr))
	}
	res.sent = uint64(len(payload) + 4)
	res.msgs++
	for {
		respB, err := ReadFrame(conn)
		if err != nil {
			return fail(fmt.Errorf("receive from %s: %w", addr, err))
		}
		frameBytes := uint64(len(respB) + 4)
		// Accepted (and undecodable) frames are billed to the unit in
		// flight below; duplicates are billed to the query that
		// originally produced them via the connection's owner map.
		accept := func() {
			res.rcvd += frameBytes
			res.msgs++
		}
		tag, err := wire.MessageTag(respB)
		if err != nil {
			accept()
			return fail(fmt.Errorf("from %s: %w", addr, err))
		}
		switch tag {
		case wire.TagWorkerError:
			we, err := wire.DecodeWorkerError(respB)
			if err != nil {
				accept()
				return fail(fmt.Errorf("decode from %s: %w", addr, err))
			}
			if we.Seq != 0 && we.Seq != seq {
				// A stale error frame for an earlier request (duplicated or
				// replayed on the wire). Ignore it and keep reading.
				res.ignored = append(res.ignored, ignoredFrame{qi: st.ownerOf(we.Seq, u.qi), bytes: frameBytes})
				continue
			}
			accept()
			// The frame itself arrived intact, so the connection stays usable.
			res.err = fmt.Errorf("worker %s partition %d: %w", addr, u.partID, we)
			res.fatal = we.Code == wire.ErrJobFailed
			res.elapsed = time.Since(t0)
			return res
		case wire.TagJobResponse:
			resp, err := wire.DecodeJobResponse(respB)
			if err != nil {
				accept()
				return fail(fmt.Errorf("decode from %s: %w", addr, err))
			}
			if resp.Seq != seq {
				// Duplicate or stale response: a chaos proxy (or a confused
				// network) replayed a frame. The sequence echo proves it is
				// not the answer to the request in flight — discard it.
				res.ignored = append(res.ignored, ignoredFrame{qi: st.ownerOf(resp.Seq, u.qi), bytes: frameBytes})
				continue
			}
			accept()
			if resp.Err != "" {
				// Legacy in-band error. Current workers always use the explicit
				// WorkerError frame, so this only fires on version skew; without
				// an error code we cannot tell transit damage from a
				// deterministic failure, and guessing "retryable" could burn the
				// whole retry budget on a job every worker rejects. Fail fast.
				res.err = fmt.Errorf("worker %s partition %d: %s", addr, u.partID, resp.Err)
				res.fatal = true
				res.elapsed = time.Since(t0)
				return res
			}
			res.resp = resp
			res.elapsed = time.Since(t0)
			return res
		default:
			accept()
			return fail(fmt.Errorf("unexpected message tag %d from %s", tag, addr))
		}
	}
}

// ownerOf reports which query the given sequence number was sent for
// on this connection, falling back to the unit in flight for sequence
// numbers the connection never issued.
func (st *connState) ownerOf(seq uint32, fallback int) int {
	if qi, ok := st.owner[seq]; ok {
		return qi
	}
	return fallback
}

// OptimizeContext runs MPQ over the remote workers. The spec's Workers
// field sets the number of plan-space partitions; if it exceeds the
// number of worker addresses, partitions are assigned round-robin (or by
// weight) and executed sequentially per worker. Every answer's Net is
// non-nil.
//
// OptimizeContext survives worker failures: see the package comment for
// the failure model. Whenever at least one worker survives and the retry
// budget suffices, the returned plan is bit-identical to a failure-free
// run, because responses are aggregated in partition-ID order.
//
// When ctx is canceled the dispatcher stops handing out work,
// force-closes every connection it opened (unblocking worker loops stuck
// in reads), aborts in-flight dials, waits for all its goroutines, and
// returns an error wrapping ctx's cause. A ctx deadline also tightens
// each job attempt's transport deadline, so per-job deadlines flow from
// context.WithDeadline rather than a bespoke field.
func (ms *Master) OptimizeContext(ctx context.Context, q *query.Query, spec core.JobSpec) (*core.Answer, error) {
	answers, err := ms.OptimizeBatch(ctx, []Job{{Query: q, Spec: spec}})
	if err != nil {
		return nil, err
	}
	return answers[0], nil
}

// OptimizeBatch optimizes a batch of independent queries through one
// pool of keep-alive worker connections: every (query, partition) pair
// becomes one unit of work, each worker's queue is seeded with its
// (weighted) share of every query, and units are executed back to back
// on the same connections — in a failure-free batch the master dials
// each worker exactly once instead of once per query (a transport
// failure drops that worker's connection, so recovery adds redials).
// Failed units are re-dispatched exactly as in OptimizeContext;
// worker-exclusion state spans the whole batch.
//
// Answers are returned in input order and are bit-identical to running
// each job through OptimizeContext by itself: partitions of one query are
// aggregated in partition-ID order regardless of how the batch
// interleaved them. Any fatal error or exhausted retry budget aborts
// the whole batch.
func (ms *Master) OptimizeBatch(ctx context.Context, jobs []Job) ([]*core.Answer, error) {
	if len(jobs) == 0 {
		return nil, errors.New("netrun: empty batch")
	}
	for _, job := range jobs {
		if err := job.Query.Validate(); err != nil {
			return nil, err
		}
		if err := job.Spec.Validate(job.Query.N()); err != nil {
			return nil, err
		}
		job.Query.Freeze() // the query is shared across worker goroutines
	}
	start := time.Now()
	k := len(ms.addrs)

	// Seed each worker's own queue with its static share of every query
	// — preserving the weighted apportionment per query — and
	// re-dispatch failures dynamically.
	queues := make([][]unit, k)
	totalParts := 0
	for qi, job := range jobs {
		for ni, parts := range ms.assignPartitions(job.Spec.Workers) {
			for _, p := range parts {
				queues[ni] = append(queues[ni], unit{qi: qi, partID: p})
			}
		}
		totalParts += job.Spec.Workers
	}

	gives := make([]chan unit, k)
	results := make(chan jobResult, k)
	regCtx, regCancel := context.WithCancel(ctx)
	reg := &connReg{ctx: regCtx, cancel: regCancel, conns: map[net.Conn]struct{}{}}
	sts := make([]*connState, k)
	var wg sync.WaitGroup
	for ni := 0; ni < k; ni++ {
		gives[ni] = make(chan unit, 1)
		sts[ni] = &connState{}
		wg.Add(1)
		go func(ni int) {
			defer wg.Done()
			ms.workerLoop(ctx, ni, jobs, gives[ni], results, reg, sts[ni])
		}(ni)
	}
	defer func() {
		for _, g := range gives {
			close(g)
		}
		reg.closeAll() // cancels in-flight dials, closes open conns
		wg.Wait()
	}()

	type partDone struct {
		resp    *wire.JobResponse
		elapsed time.Duration
	}
	done := make([][]partDone, len(jobs))
	remaining := make([]int, len(jobs))
	for qi, job := range jobs {
		done[qi] = make([]partDone, job.Spec.Workers)
		remaining[qi] = job.Spec.Workers
	}
	nDone := 0
	alive := make([]bool, k)
	idle := make([]bool, k)
	for i := range alive {
		alive[i], idle[i] = true, true
	}
	aliveCount := k
	consecFails := make([]int, k)
	var retryQ []unit
	outstanding := 0
	answers := make([]*core.Answer, len(jobs))
	for qi := range answers {
		answers[qi] = &core.Answer{Net: &core.NetStats{}}
	}

	// Adaptive-scheduling state, inert unless Speculate or ReadmitAfter
	// is set: what each worker runs and since when, how many copies of
	// each partition are in flight, each query's completed-partition
	// service times (the straggler threshold's median source), and the
	// per-worker probe backoff bookkeeping.
	type partKey struct{ qi, partID int }
	adaptive := ms.speculate || ms.readmitAfter > 0
	runningU := make([]unit, k)
	runningActive := make([]bool, k)
	runningSince := make([]time.Time, k)
	probing := make([]bool, k)
	excludedAt := make([]time.Time, k)
	probeBackoff := make([]time.Duration, k)
	inflightCnt := map[partKey]int{}
	svcTimes := make([][]time.Duration, len(jobs))

	isDone := func(u unit) bool { return done[u.qi][u.partID].resp != nil }

	// threshold is one query's straggler bar (see core.StragglerThreshold).
	threshold := func(qi int) (time.Duration, bool) {
		return core.StragglerThreshold(svcTimes[qi], ms.specMultiplier, ms.specFloor)
	}

	sendTo := func(ni int, u unit, probe bool) {
		idle[ni] = false
		outstanding++
		runningU[ni], runningActive[ni], runningSince[ni] = u, true, time.Now()
		probing[ni] = probe
		inflightCnt[partKey{u.qi, u.partID}]++
		gives[ni] <- u
	}

	// failedOnAllAlive reports whether every surviving worker has already
	// failed this unit; if so, any survivor may retry it (the alternative
	// is giving up while budget remains).
	failedOnAllAlive := func(u unit) bool {
		for ni := 0; ni < k; ni++ {
			if alive[ni] && !slices.Contains(u.failedOn, ni) {
				return false
			}
		}
		return true
	}

	// specSource picks what an otherwise-idle worker should clone: the
	// longest-over-threshold partition that has exactly one copy in
	// flight. Probe jobs are never speculated — they are already clones.
	specSource := func(ni int, now time.Time) (int, bool) {
		best := -1
		var bestElapsed time.Duration
		for nj := 0; nj < k; nj++ {
			if nj == ni || !runningActive[nj] || probing[nj] {
				continue
			}
			r := runningU[nj]
			if isDone(r) || inflightCnt[partKey{r.qi, r.partID}] > 1 {
				continue
			}
			thr, ok := threshold(r.qi)
			if !ok {
				continue
			}
			if el := now.Sub(runningSince[nj]); el >= thr && el > bestElapsed {
				best, bestElapsed = nj, el
			}
		}
		return best, best >= 0
	}

	// probeUnitFor picks a low-priority clone for a re-admission probe:
	// the head of the longest pending queue, a retry unit the excluded
	// worker has not already failed, or the oldest in-flight unit — in
	// that order. Originals stay where they are; whichever copy answers
	// second is reconciled by the duplicate-discard machinery.
	probeUnitFor := func(ni int) (unit, bool) {
		best := -1
		for nj := 0; nj < k; nj++ {
			if len(queues[nj]) > 0 && (best < 0 || len(queues[nj]) > len(queues[best])) {
				best = nj
			}
		}
		if best >= 0 {
			for _, cand := range queues[best] {
				if !isDone(cand) {
					return cand, true
				}
			}
		}
		for _, r := range retryQ {
			if !isDone(r) && !slices.Contains(r.failedOn, ni) {
				return r, true
			}
		}
		oldest := -1
		for nj := 0; nj < k; nj++ {
			if nj == ni || !runningActive[nj] || probing[nj] || isDone(runningU[nj]) {
				continue
			}
			if oldest < 0 || runningSince[nj].Before(runningSince[oldest]) {
				oldest = nj
			}
		}
		if oldest >= 0 {
			return runningU[oldest], true
		}
		return unit{}, false
	}

	dispatch := func() {
		now := time.Now()
		if adaptive {
			// Partitions answered by a winning clone may still sit in the
			// retry queue; purge it eagerly (worker queues purge on pop).
			kept := retryQ[:0]
			for _, r := range retryQ {
				if !isDone(r) {
					kept = append(kept, r)
				}
			}
			retryQ = kept
		}
		for ni := 0; ni < k; ni++ {
			if !alive[ni] || !idle[ni] {
				continue
			}
			var u unit
			ok := false
			for len(queues[ni]) > 0 {
				cand := queues[ni][0]
				queues[ni] = queues[ni][1:]
				if !isDone(cand) {
					u, ok = cand, true
					break
				}
			}
			if !ok {
				for i := range retryQ {
					r := retryQ[i]
					if !slices.Contains(r.failedOn, ni) || failedOnAllAlive(r) {
						u = r
						retryQ = append(retryQ[:i], retryQ[i+1:]...)
						ok = true
						break
					}
				}
			}
			if !ok && ms.speculate {
				// Work stealing: an idle worker drains the most loaded peer's
				// queue instead of watching it struggle.
				src := -1
				for nj := 0; nj < k; nj++ {
					if nj != ni && len(queues[nj]) > 0 && (src < 0 || len(queues[nj]) > len(queues[src])) {
						src = nj
					}
				}
				for src >= 0 && len(queues[src]) > 0 {
					cand := queues[src][0]
					queues[src] = queues[src][1:]
					if !isDone(cand) {
						u, ok = cand, true
						break
					}
				}
			}
			if ok {
				sendTo(ni, u, false)
				continue
			}
			if !ms.speculate {
				continue
			}
			// Speculative re-dispatch: clone the worst straggler onto this
			// otherwise-idle worker; first answer wins.
			if nj, found := specSource(ni, now); found {
				orig := runningU[nj]
				clone := unit{qi: orig.qi, partID: orig.partID, attempts: orig.attempts,
					failedOn: append(slices.Clone(orig.failedOn), nj)}
				answers[orig.qi].Net.Speculations++
				sendTo(ni, clone, false)
			}
		}
		// Re-admission probes for excluded workers past their backoff.
		if ms.readmitAfter > 0 {
			for ni := 0; ni < k; ni++ {
				if alive[ni] || !idle[ni] || now.Sub(excludedAt[ni]) < probeBackoff[ni] {
					continue
				}
				if u, ok := probeUnitFor(ni); ok {
					answers[u.qi].Net.Probes++
					sendTo(ni, u, true)
				} else {
					// Nothing suitable to probe with; look again one backoff
					// from now instead of spinning.
					excludedAt[ni] = now
				}
			}
		}
	}

	// nextWake is the earliest instant at which dispatch could do
	// something it cannot do now: a running partition crossing the
	// straggler bar while an idle worker waits, or a probe backoff
	// expiring. It mirrors dispatch's eligibility rules exactly — a timer
	// that fired into a dispatch that refuses to act would busy-loop.
	nextWake := func() (time.Time, bool) {
		var wake time.Time
		if ms.speculate {
			idleAlive := false
			for ni := 0; ni < k; ni++ {
				if alive[ni] && idle[ni] {
					idleAlive = true
					break
				}
			}
			if idleAlive {
				for nj := 0; nj < k; nj++ {
					if !runningActive[nj] || probing[nj] {
						continue
					}
					r := runningU[nj]
					if isDone(r) || inflightCnt[partKey{r.qi, r.partID}] > 1 {
						continue
					}
					thr, ok := threshold(r.qi)
					if !ok {
						continue
					}
					if t := runningSince[nj].Add(thr); wake.IsZero() || t.Before(wake) {
						wake = t
					}
				}
			}
		}
		if ms.readmitAfter > 0 {
			for ni := 0; ni < k; ni++ {
				if alive[ni] || !idle[ni] {
					continue
				}
				if t := excludedAt[ni].Add(probeBackoff[ni]); wake.IsZero() || t.Before(wake) {
					wake = t
				}
			}
		}
		return wake, !wake.IsZero()
	}

	for nDone < totalParts {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("netrun: %w", context.Cause(ctx))
		}
		if aliveCount == 0 {
			return nil, fmt.Errorf("netrun: all %d workers failed with %d of %d partitions unanswered",
				k, totalParts-nDone, totalParts)
		}
		dispatch()
		if outstanding == 0 {
			// Unreachable while a worker is alive: an idle survivor always
			// accepts pending work. Guard against coordination bugs anyway.
			return nil, fmt.Errorf("netrun: stalled with %d of %d partitions unanswered", totalParts-nDone, totalParts)
		}
		var timerC <-chan time.Time
		var timer *time.Timer
		if adaptive {
			if wake, ok := nextWake(); ok {
				d := time.Until(wake)
				if d < time.Millisecond {
					d = time.Millisecond
				}
				timer = time.NewTimer(d)
				timerC = timer.C
			}
		}
		var res jobResult
		gotRes := false
		select {
		case res = <-results:
			gotRes = true
		case <-timerC:
			// A straggler threshold or probe backoff just expired; loop so
			// dispatch can act on it.
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			// The deferred cleanup force-closes every connection, aborting
			// in-flight work, and waits for the worker loops to exit.
			return nil, fmt.Errorf("netrun: %w", context.Cause(ctx))
		}
		if timer != nil {
			timer.Stop()
		}
		if !gotRes {
			continue
		}
		outstanding--
		ni := res.worker
		idle[ni] = true
		wasProbe := probing[ni]
		probing[ni] = false
		runningActive[ni] = false
		key := partKey{res.unit.qi, res.unit.partID}
		if inflightCnt[key]--; inflightCnt[key] <= 0 {
			delete(inflightCnt, key)
		}
		// stale: some other copy of this partition already won the race
		// and was aggregated; whatever this attempt brought back is
		// redundant by construction.
		stale := isDone(res.unit)
		ans := answers[res.unit.qi]
		ans.Net.BytesSent += res.sent
		ans.Net.BytesReceived += res.rcvd
		ans.Net.Messages += res.msgs
		for _, ig := range res.ignored {
			origin := answers[ig.qi].Net
			origin.BytesReceived += ig.bytes
			origin.Messages++
			origin.IgnoredFrames++
		}
		if res.dialed {
			ans.Net.Dials++
		}
		if res.err == nil {
			consecFails[ni] = 0
			if wasProbe && !alive[ni] {
				// The excluded worker answered a probe correctly: readmit it.
				alive[ni] = true
				aliveCount++
				ans.Net.Readmitted++
			}
			if stale {
				// The race's loser finished anyway (our cancel lost its own
				// race with the response): correct but redundant, discarded.
				ans.Net.SpeculationWasted++
				continue
			}
			done[res.unit.qi][res.unit.partID] = partDone{resp: res.resp, elapsed: res.elapsed}
			svcTimes[res.unit.qi] = append(svcTimes[res.unit.qi], res.elapsed)
			nDone++
			if remaining[res.unit.qi]--; remaining[res.unit.qi] == 0 {
				ans.Elapsed = time.Since(start)
			}
			if _, racing := inflightCnt[key]; racing {
				// This partition is still running elsewhere: tell the losers
				// to abort their dynamic programs.
				for nj := 0; nj < k; nj++ {
					if nj != ni && runningActive[nj] && runningU[nj].qi == key.qi && runningU[nj].partID == key.partID {
						if n := sts[nj].cancelInFlight(); n > 0 {
							ans.Net.BytesSent += uint64(n)
							ans.Net.Messages++
						}
					}
				}
			}
			continue
		}
		var we *wire.WorkerError
		if errors.As(res.err, &we) && we.Code == wire.ErrCanceled {
			// The loser acknowledged our cancel: benign — no penalty, no
			// connection drop, nothing to re-dispatch.
			ans.Net.SpeculationWasted++
			if wasProbe {
				// The probe's own partition finished elsewhere before the
				// probe did. Proves nothing about the worker's health either
				// way: stay excluded, try again one backoff from now.
				excludedAt[ni] = time.Now()
				continue
			}
			if stale {
				continue
			}
			// A worker canceled a job the master still wants — spurious, but
			// recoverable: re-queue under the attempt budget.
			u := res.unit
			u.attempts++
			u.failedOn = append(u.failedOn, ni)
			if u.attempts >= ms.maxAttempts {
				return nil, fmt.Errorf("netrun: partition %d failed %d times, giving up: %w",
					u.partID, u.attempts, res.err)
			}
			ans.Net.Redispatched++
			retryQ = append(retryQ, u)
			continue
		}
		if res.fatal {
			if stale {
				// A deterministic failure from a race's loser, for a
				// partition that already has a correct answer: it cannot
				// poison the batch (the canceled DP may legitimately error
				// out mid-abort).
				ans.Net.SpeculationWasted++
				continue
			}
			return nil, fmt.Errorf("netrun: %w", res.err)
		}
		// A transport failure at or past the caller's deadline is the
		// deadline's doing, not the worker's: the attempt deadline was
		// tightened to the ctx deadline, and conn timeouts can fire a
		// beat before the context's own timer. Wait for the (imminent)
		// timer so the error is the deadline, deterministically.
		if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
			<-ctx.Done()
			return nil, fmt.Errorf("netrun: %w", context.Cause(ctx))
		}
		// Transport-level failure: hold the worker accountable and
		// re-dispatch the unit.
		consecFails[ni]++
		if alive[ni] && consecFails[ni] >= ms.maxWorkerFailures {
			alive[ni] = false
			aliveCount--
			excludedAt[ni] = time.Now()
			probeBackoff[ni] = ms.readmitAfter
			// Hand the excluded worker's untouched share to the survivors.
			retryQ = append(retryQ, queues[ni]...)
			queues[ni] = nil
		}
		if wasProbe {
			// A failed probe: stay excluded and back off harder. The probe
			// was a clone, so its original is still queued or running —
			// nothing needs re-dispatching.
			excludedAt[ni] = time.Now()
			probeBackoff[ni] *= 2
			continue
		}
		if stale {
			// The loser's connection died — often our own cancel tearing
			// down a chaos proxy mid-stall. The partition is answered;
			// nothing to re-dispatch. The consecutive-failure penalty above
			// stands: the worker did fail at the transport level.
			ans.Net.SpeculationWasted++
			continue
		}
		u := res.unit
		u.attempts++
		u.failedOn = append(u.failedOn, ni)
		if u.attempts >= ms.maxAttempts {
			return nil, fmt.Errorf("netrun: partition %d failed %d times, giving up: %w",
				u.partID, u.attempts, res.err)
		}
		ans.Net.Redispatched++
		retryQ = append(retryQ, u)
	}

	// Aggregate each query in partition-ID order: arrival order varies
	// with retries, scheduling and batch interleaving, but the answers
	// must not.
	for qi, job := range jobs {
		ans := answers[qi]
		m := job.Spec.Workers
		frontiers := make([][]*plan.Node, 0, m)
		for partID := 0; partID < m; partID++ {
			pd := done[qi][partID]
			ans.Stats.Add(pd.resp.Stats)
			if pd.resp.Stats.WorkUnits() > ans.MaxWorkerStats.WorkUnits() {
				ans.MaxWorkerStats = pd.resp.Stats
			}
			if pd.elapsed > ans.MaxWorkerElapsed {
				ans.MaxWorkerElapsed = pd.elapsed
			}
			ans.PerWorker = append(ans.PerWorker, core.WorkerReport{
				PartID: partID, Plans: len(pd.resp.Plans), Stats: pd.resp.Stats, Elapsed: pd.elapsed,
			})
			frontiers = append(frontiers, pd.resp.Plans)
		}
		best, frontier, err := core.FinalPrune(job.Spec, frontiers)
		if err != nil {
			return nil, err
		}
		ans.Best, ans.Frontier = best, frontier
	}
	return answers, nil
}
