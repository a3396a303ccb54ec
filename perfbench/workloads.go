package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"slices"
	"time"

	"mpq"
	"mpq/internal/server"
	"mpq/internal/spec"
	"mpq/internal/wire"
)

// Run sizes. --seconds scales a fixed amount of work — whole passes or
// whole stream arrivals — never a time limit, so every run of one
// workload at one --seconds does identical work. The rates are sized so
// that a run measures for about --seconds on a 2-vCPU x86 machine.
const (
	coldPassesPerSecond   = 0.7  // cold-inproc: passes over its 16 queries
	zipfArrivalsPerSecond = 1000 // zipf-http: timed stream arrivals
	zipfWarmArrivals      = 1024 // zipf-http: untimed arrivals that warm the cache
	zipfDistinct          = 256
	zipfSkew              = 1.1
	// zipfBudgetShare is the cache byte budget as a share of the bytes
	// all distinct answers would occupy: below the working set, so the
	// timed stream keeps missing and evicting.
	zipfBudgetShare     = 0.35
	tcpPassesPerSecond  = 6.0 // tcp-wire: passes over its 12 queries
	costTolerance       = 1e-9
	defaultHTTPTimeout  = 60 * time.Second
	defaultDrainTimeout = 10 * time.Second
)

// workloadDef names a workload and builds its served path.
type workloadDef struct {
	name  string
	build func(ctx context.Context, seed int64, seconds int, tr *tracer) (*system, error)
}

var workloads = []workloadDef{
	{name: "cold-inproc", build: buildCold},
	{name: "zipf-http", build: buildZipf},
	{name: "tcp-wire", build: buildTCP},
}

// job is one distinct optimization request of a workload together with
// the reference answers computed at set-up.
type job struct {
	q    *mpq.Query
	spec mpq.JobSpec
	body []byte // HTTP request body (zipf-http)

	ref        *mpq.Answer // InProcessEngine answer
	fp         string      // fingerprint of ref.Best
	frontier   []string    // fingerprints of ref.Frontier
	optimum    float64     // SerialEngine single-objective optimum cost
	serialWork uint64      // SerialEngine work units for this spec
	net        mpq.NetStats
	reqBytes   int // wire JobRequest payload
	respBytes  int // wire JobResponse payload (best plus frontier)
}

// check compares one served answer with the references: the plan
// fingerprint (and frontier, for frontier objectives) must equal the
// InProcessEngine answer's, the cost must equal the serial optimum (or,
// for α-approximate frontiers, not beat it), and the DP work must equal
// the reference's. Single-objective costs may differ from the serial
// optimum in the last bits when equal-cost trees are summed in another
// order, hence the relative tolerance.
func (j *job) check(fp string, cost float64, frontier []string, work uint64) error {
	if fp != j.fp {
		return fmt.Errorf("plan fingerprint %.16s differs from reference %.16s", fp, j.fp)
	}
	if j.spec.Objective == mpq.SingleObjective {
		if math.Abs(cost-j.optimum) > costTolerance*j.optimum {
			return fmt.Errorf("cost %g differs from serial optimum %g", cost, j.optimum)
		}
	} else {
		if cost < j.optimum*(1-costTolerance) {
			return fmt.Errorf("cost %g beats the serial optimum %g", cost, j.optimum)
		}
		if !slices.Equal(frontier, j.frontier) {
			return fmt.Errorf("frontier of %d plans differs from the reference's %d", len(frontier), len(j.frontier))
		}
	}
	if work != j.ref.Stats.WorkUnits() {
		return fmt.Errorf("work units %d differ from reference %d", work, j.ref.Stats.WorkUnits())
	}
	return nil
}

func (j *job) checkAnswer(ans *mpq.Answer) error {
	var frontier []string
	for _, p := range ans.Frontier {
		frontier = append(frontier, mpq.PlanFingerprint(p))
	}
	return j.check(mpq.PlanFingerprint(ans.Best), ans.Best.Cost, frontier, ans.Stats.WorkUnits())
}

// references computes every job's reference answers: fingerprints with
// the InProcessEngine, optimal cost and serial work with the
// SerialEngine. The InProcessEngine pass also fills the worker memory
// pools the measured engines draw from.
func references(ctx context.Context, jobs []*job) error {
	inproc, serial := mpq.NewInProcessEngine(), mpq.NewSerialEngine()
	for i, j := range jobs {
		a, err := inproc.Optimize(ctx, j.q, j.spec)
		if err != nil {
			return fmt.Errorf("reference %d: %w", i, err)
		}
		model := j.spec.EffectiveModel()
		if model == (mpq.CostModel{}) {
			model = mpq.DefaultCostModel()
		}
		if err := mpq.ValidatePlan(a.Best, j.q, model); err != nil {
			return fmt.Errorf("reference %d: %w", i, err)
		}
		s, err := serial.Optimize(ctx, j.q, j.spec)
		if err != nil {
			return fmt.Errorf("serial reference %d: %w", i, err)
		}
		j.serialWork, j.optimum = s.Stats.WorkUnits(), s.Best.Cost
		if j.spec.Objective != mpq.SingleObjective {
			so := j.spec
			so.Objective, so.Alpha = mpq.SingleObjective, 0
			if s, err = serial.Optimize(ctx, j.q, so); err != nil {
				return fmt.Errorf("serial reference %d: %w", i, err)
			}
			j.optimum = s.Best.Cost
		}
		j.ref, j.fp, j.frontier = a, mpq.PlanFingerprint(a.Best), nil
		for _, p := range a.Frontier {
			j.frontier = append(j.frontier, mpq.PlanFingerprint(p))
		}
		if err := j.checkAnswer(a); err != nil {
			return fmt.Errorf("reference %d against serial: %w", i, err)
		}
		plans := []*mpq.Plan{a.Best}
		if j.spec.Objective.HasFrontier() {
			plans = append(plans, a.Frontier...)
		}
		j.reqBytes = len(wire.EncodeJobRequest(&wire.JobRequest{Spec: j.spec, Query: j.q}))
		j.respBytes = len(wire.EncodeJobResponse(&wire.JobResponse{Plans: plans, Stats: a.Stats}))
	}
	return nil
}

// subSeed derives a workload's generator seed from the run's --seed, so
// neighbouring seeds give unrelated query populations.
func subSeed(seed int64, salt string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", salt, seed)
	return int64(h.Sum64() >> 2)
}

func scaled(seconds int, perSecond float64) int {
	return max(1, int(math.Round(float64(seconds)*perSecond)))
}

// passes returns the arrival order of k whole passes over n jobs.
func passes(n, k int) []int {
	order := make([]int, 0, n*k)
	for p := 0; p < k; p++ {
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
	}
	return order
}

// buildCold is cold-inproc: one closed-loop client calling an
// InProcessEngine directly, no daemon, no cache, no network.
func buildCold(ctx context.Context, seed int64, seconds int, tr *tracer) (*system, error) {
	base := subSeed(seed, "cold-inproc")
	var jobs []*job
	for _, g := range []struct {
		space mpq.Space
		n     int
	}{{mpq.Linear, 14}, {mpq.Bushy, 11}} {
		for _, shape := range []mpq.Shape{mpq.Star, mpq.Chain, mpq.Cycle, mpq.Clique} {
			for v := 0; v < 2; v++ {
				_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(g.n, shape), base+int64(len(jobs)))
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, &job{q: q, spec: mpq.JobSpec{Space: g.space, Workers: 8}})
			}
		}
	}
	// The reference pass runs the measured engine's code on every query,
	// so it is also the warm-up: worker pools are filled afterwards.
	if err := references(ctx, jobs); err != nil {
		return nil, err
	}
	eng := &layer{name: "core", inner: mpq.NewInProcessEngine(), tr: tr}
	sys := &system{jobs: jobs, clients: 1, pass: len(jobs), root: "client", tr: tr, stop: func() {}}
	sys.timed = passes(len(jobs), scaled(seconds, coldPassesPerSecond))
	sys.issue = func(ctx context.Context, j *job) (string, error) {
		ans, err := eng.Optimize(ctx, j.q, j.spec)
		if err != nil {
			return "", err
		}
		return "", j.checkAnswer(ans)
	}
	return sys, nil
}

// fixedEngine answers each known query with its precomputed reference;
// it sizes the zipf-http working set without running any DP.
type fixedEngine map[*mpq.Query]*mpq.Answer

func (f fixedEngine) Optimize(_ context.Context, q *mpq.Query, _ mpq.JobSpec) (*mpq.Answer, error) {
	return f[q], nil
}

func (f fixedEngine) OptimizeBatch(context.Context, []mpq.Job) ([]*mpq.Answer, error) {
	return nil, errors.New("fixedEngine: batches are not used")
}

// buildZipf is zipf-http: two closed-loop HTTP clients against the
// daemon's HTTP front over WithCache(InProcessEngine), fed a Zipf
// stream whose distinct answers do not all fit the cache budget.
func buildZipf(ctx context.Context, seed int64, seconds int, tr *tracer) (*system, error) {
	timed := scaled(seconds, zipfArrivalsPerSecond)
	st, err := mpq.GenerateWorkloadStream(mpq.StreamParams{
		Query:    mpq.NewWorkloadParams(11, mpq.Star),
		Distinct: zipfDistinct,
		Length:   zipfWarmArrivals + timed,
		Skew:     zipfSkew,
	}, subSeed(seed, "zipf-http"))
	if err != nil {
		return nil, err
	}
	jobs := make([]*job, len(st.Queries))
	for i, q := range st.Queries {
		// The reference is computed on the query the HTTP front decodes
		// from the request body.
		qs := spec.FromQuery(q)
		if q, err = qs.ToQuery(); err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.OptimizeRequest{Query: *qs, Space: "linear", Workers: 4})
		if err != nil {
			return nil, err
		}
		jobs[i] = &job{q: q, spec: mpq.JobSpec{Space: mpq.Linear, Workers: 4}, body: body}
	}
	if err := references(ctx, jobs); err != nil {
		return nil, err
	}
	fe := fixedEngine{}
	for _, j := range jobs {
		fe[j.q] = j.ref
	}
	sizer := mpq.WithCache(fe, mpq.CacheConfig{})
	for _, j := range jobs {
		if _, err := sizer.Optimize(ctx, j.q, j.spec); err != nil {
			return nil, err
		}
	}
	budget := int64(float64(sizer.CacheTotals().Bytes) * zipfBudgetShare)

	cached := mpq.WithCache(&layer{name: "core", inner: mpq.NewInProcessEngine(), tr: tr}, mpq.CacheConfig{MaxBytes: budget})
	srv, err := server.New(server.Config{
		Engine:      &layer{name: "cache", inner: cached, tr: tr},
		HTTPAddr:    "127.0.0.1:0",
		Dispatchers: 2,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	client := &http.Client{Transport: transport, Timeout: defaultHTTPTimeout}
	url := "http://" + srv.HTTPAddr() + "/v1/optimize"
	sys := &system{jobs: jobs, clients: 2, pass: 1, root: "server", tr: tr, cache: cached}
	sys.stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), defaultDrainTimeout)
		defer cancel()
		srv.Shutdown(ctx)
		transport.CloseIdleConnections()
	}
	sys.warm, sys.timed = st.Order[:zipfWarmArrivals], st.Order[zipfWarmArrivals:]
	sys.issue = func(ctx context.Context, j *job) (string, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(j.body))
		if err != nil {
			return "", err
		}
		resp, err := client.Do(req)
		if err != nil {
			return "", err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		var or server.OptimizeResponse
		if err := json.Unmarshal(body, &or); err != nil {
			return "", fmt.Errorf("decode response: %w", err)
		}
		return or.ID, j.check(or.Fingerprint, or.Cost, nil, or.WorkUnits)
	}
	if err := sys.warmUp(); err != nil {
		sys.stop()
		return nil, err
	}
	return sys, nil
}

// buildTCP is tcp-wire: one closed-loop wire client (server.Dial) against
// the daemon's wire front over a TCPEngine with two loopback workers.
func buildTCP(ctx context.Context, seed int64, seconds int, tr *tracer) (*system, error) {
	base := subSeed(seed, "tcp-wire")
	shapes := []mpq.Shape{mpq.Star, mpq.Chain, mpq.Cycle, mpq.Clique}
	jobs := make([]*job, 12)
	for i := range jobs {
		_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(12, shapes[i%len(shapes)]), base+int64(i))
		if err != nil {
			return nil, err
		}
		js := mpq.JobSpec{Space: mpq.Linear, Workers: 4}
		if i%3 == 2 {
			js.Objective, js.Alpha = mpq.MultiObjective, 10
		}
		jobs[i] = &job{q: q, spec: js}
	}
	if err := references(ctx, jobs); err != nil {
		return nil, err
	}
	var stops []func()
	sys := &system{jobs: jobs, clients: 1, pass: len(jobs), root: "server", tr: tr}
	sys.stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	fail := func(err error) (*system, error) {
		sys.stop()
		return nil, err
	}
	var addrs []string
	for w := 0; w < 2; w++ {
		wk, err := mpq.ListenWorker("127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		stops = append(stops, func() { wk.Close() })
		addrs = append(addrs, wk.Addr())
	}
	te, err := mpq.NewTCPEngine(addrs)
	if err != nil {
		return fail(err)
	}
	// Traffic references: one direct pass through the TCP engine.
	for i, j := range jobs {
		a, err := te.Optimize(ctx, j.q, j.spec)
		if err != nil {
			return fail(fmt.Errorf("tcp reference %d: %w", i, err))
		}
		if err := j.checkAnswer(a); err != nil {
			return fail(fmt.Errorf("tcp reference %d: %w", i, err))
		}
		j.net = *a.Net
	}
	srv, err := server.New(server.Config{
		Engine:      &layer{name: "netrun", inner: te, tr: tr},
		WireAddr:    "127.0.0.1:0",
		Dispatchers: 2,
	})
	if err != nil {
		return fail(err)
	}
	if err := srv.Start(); err != nil {
		return fail(err)
	}
	stops = append(stops, func() {
		ctx, cancel := context.WithTimeout(context.Background(), defaultDrainTimeout)
		defer cancel()
		srv.Shutdown(ctx)
	})
	cl, err := server.Dial(srv.WireAddr(), 5*time.Second)
	if err != nil {
		return fail(err)
	}
	stops = append(stops, func() { cl.Close() })
	sys.issue = func(ctx context.Context, j *job) (string, error) {
		ans, err := cl.Optimize(ctx, j.q, j.spec)
		if err != nil {
			return "", err
		}
		return "", j.checkAnswer(ans)
	}
	sys.warm = passes(len(jobs), 1)
	sys.timed = passes(len(jobs), scaled(seconds, tcpPassesPerSecond))
	if err := sys.warmUp(); err != nil {
		return fail(err)
	}
	return sys, nil
}
