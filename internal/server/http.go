package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"mpq"
	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/spec"
)

// maxHTTPBody caps a request body; a QuerySpec for the largest
// supported query is a few kilobytes, so 8 MiB is generous.
const maxHTTPBody = 8 << 20

// OptimizeRequest is the HTTP API's request body for /v1/optimize and
// one element of /v1/batch's jobs array.
type OptimizeRequest struct {
	// Query is the join query in the repo's standard JSON spec (the
	// same document mpqopt -query reads).
	Query spec.QuerySpec `json:"query"`
	// Space is "linear" (default) or "bushy".
	Space string `json:"space,omitempty"`
	// Workers is the plan-space partition count m (power of two,
	// default 1).
	Workers int `json:"workers,omitempty"`
	// Objective is "single" (default), "multi", or "robust".
	Objective string `json:"objective,omitempty"`
	// Alpha is the multi-objective approximation factor (default 10).
	Alpha float64 `json:"alpha,omitempty"`
	// RobustBand is the selectivity uncertainty band B ≥ 1 for robust
	// jobs; 0 means the engine default.
	RobustBand float64 `json:"robustBand,omitempty"`
	// InterestingOrders enables sort-order tracking.
	InterestingOrders bool `json:"interestingOrders,omitempty"`
	// Tenant names the fairness bucket; falls back to the
	// X-MPQ-Tenant header, then "default".
	Tenant string `json:"tenant,omitempty"`
	// TimeoutMs bounds this request; 0 means the server default.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// CacheInfo reports how the engine's plan cache served an answer.
type CacheInfo struct {
	Hit       bool `json:"hit"`
	Collapsed bool `json:"collapsed"`
}

// OptimizeResponse is the HTTP API's response body.
type OptimizeResponse struct {
	ID          string     `json:"id"`
	Fingerprint string     `json:"fingerprint"`
	Cost        float64    `json:"cost"`
	Plan        string     `json:"plan"`
	WorkUnits   uint64     `json:"workUnits"`
	Frontier    []string   `json:"frontier,omitempty"` // multi-objective: frontier plan expressions
	Cache       *CacheInfo `json:"cache,omitempty"`
	QueueMicros int64      `json:"queueMicros"`
	ServeMicros int64      `json:"serveMicros"`
}

// BatchLine is one NDJSON line of a /v1/batch response, emitted in
// completion order: Index maps it back to the jobs array.
type BatchLine struct {
	Index int `json:"index"`
	*OptimizeResponse
	Error string `json:"error,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/optimize", s.handleOptimize)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON replies with v as one line of JSON. v is marshaled before
// the status goes out, so a value JSON cannot represent (a +Inf cost)
// becomes a 500 with an errorBody, never a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorBody{Error: "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// writeSubmitError maps an admission failure to its HTTP status.
func writeSubmitError(w http.ResponseWriter, err error) {
	switch err {
	case ErrOverloaded:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case ErrDraining:
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// parseJob turns an API request into the query and spec the engine
// wants, or an error suitable for a 400.
func parseJob(or *OptimizeRequest) (*mpq.Query, mpq.JobSpec, error) {
	q, err := or.Query.ToQuery()
	if err != nil {
		return nil, mpq.JobSpec{}, err
	}
	js := mpq.JobSpec{
		Workers:           or.Workers,
		Alpha:             or.Alpha,
		RobustBand:        or.RobustBand,
		InterestingOrders: or.InterestingOrders,
	}
	if js.Workers == 0 {
		js.Workers = 1
	}
	switch or.Space {
	case "", "linear":
		js.Space = partition.Linear
	case "bushy":
		js.Space = partition.Bushy
	default:
		return nil, mpq.JobSpec{}, fmt.Errorf("unknown space %q (want linear or bushy)", or.Space)
	}
	switch or.Objective {
	case "", "single":
		js.Objective = core.SingleObjective
	case "multi":
		js.Objective = core.MultiObjective
	case "robust":
		js.Objective = core.RobustObjective
	default:
		return nil, mpq.JobSpec{}, fmt.Errorf("unknown objective %q (want single, multi, or robust)", or.Objective)
	}
	if err := js.Validate(q.N()); err != nil {
		return nil, mpq.JobSpec{}, err
	}
	return q, js, nil
}

// buildRequest assembles an admission-ready request. The returned
// channel receives the result exactly once (buffered: the dispatcher
// never blocks on a reader that gave up).
func (s *Server) buildRequest(parent context.Context, or *OptimizeRequest, tenant string, source string) (*request, <-chan result) {
	q, js, err := parseJob(or)
	done := make(chan result, 1)
	if err != nil {
		done <- result{err: err}
		return nil, done
	}
	timeout := s.cfg.DefaultTimeout
	if or.TimeoutMs > 0 {
		timeout = time.Duration(or.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(parent, timeout)
	req := &request{
		ctx:    ctx,
		cancel: cancel,
		id:     s.nextID(),
		tenant: tenant,
		source: source,
		query:  q,
		spec:   js,
		enq:    time.Now(),
	}
	req.respond = func(res result) { done <- res }
	return req, done
}

// buildResponse converts an engine answer to the API shape. Queue time
// is everything between admission and the answer that the engine's own
// clock does not account for.
func buildResponse(req *request, res result) *OptimizeResponse {
	served := time.Since(req.enq)
	resp := &OptimizeResponse{
		ID:          req.id,
		Fingerprint: mpq.PlanFingerprint(res.ans.Best),
		Cost:        res.ans.Best.Cost,
		Plan:        res.ans.Best.String(),
		WorkUnits:   res.ans.Stats.WorkUnits(),
		QueueMicros: served.Microseconds() - res.ans.Elapsed.Microseconds(),
		ServeMicros: res.ans.Elapsed.Microseconds(),
	}
	if resp.QueueMicros < 0 {
		resp.QueueMicros = 0
	}
	for _, p := range res.ans.Frontier {
		resp.Frontier = append(resp.Frontier, p.String())
	}
	if cs := res.ans.Cache; cs != nil {
		resp.Cache = &CacheInfo{Hit: cs.Hit, Collapsed: cs.Collapsed}
	}
	return resp
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	var or OptimizeRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxHTTPBody)
	if err := json.NewDecoder(r.Body).Decode(&or); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decode: " + err.Error()})
		return
	}
	tenant := or.Tenant
	if tenant == "" {
		tenant = r.Header.Get("X-MPQ-Tenant")
	}
	if tenant == "" {
		tenant = "default"
	}
	req, done := s.buildRequest(r.Context(), &or, tenant, "http")
	if req == nil {
		res := <-done
		writeJSON(w, http.StatusBadRequest, errorBody{Error: res.err.Error()})
		return
	}
	if err := s.submit(req); err != nil {
		req.cancel()
		writeSubmitError(w, err)
		return
	}
	res := <-done // respond is guaranteed: dispatchers drain even canceled requests
	if res.err != nil {
		status := http.StatusInternalServerError
		if req.ctx.Err() != nil {
			status = http.StatusGatewayTimeout
		}
		writeJSON(w, status, errorBody{Error: res.err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, buildResponse(req, res))
}

// BatchRequest is /v1/batch's body: independent jobs admitted together
// and answered as an NDJSON stream in completion order.
type BatchRequest struct {
	// Tenant is the fallback for jobs that do not set their own.
	Tenant string `json:"tenant,omitempty"`
	// TimeoutMs is the fallback per-job timeout.
	TimeoutMs int64             `json:"timeoutMs,omitempty"`
	Jobs      []OptimizeRequest `json:"jobs"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	var br BatchRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxHTTPBody)
	if err := json.NewDecoder(r.Body).Decode(&br); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decode: " + err.Error()})
		return
	}
	if len(br.Jobs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty batch"})
		return
	}

	type pending struct {
		req  *request
		done <-chan result
		err  error // admission or parse failure
	}
	type completion struct {
		index int
		res   result
	}
	jobs := make([]pending, len(br.Jobs))
	completions := make(chan completion, len(br.Jobs))
	admitted := 0
	for i := range br.Jobs {
		or := &br.Jobs[i]
		if or.Tenant == "" {
			or.Tenant = br.Tenant
		}
		if or.Tenant == "" {
			or.Tenant = "default"
		}
		if or.TimeoutMs == 0 {
			or.TimeoutMs = br.TimeoutMs
		}
		req, done := s.buildRequest(r.Context(), or, or.Tenant, "http")
		jobs[i] = pending{req: req, done: done}
		if req == nil {
			jobs[i].err = (<-done).err
			continue
		}
		if err := s.submit(req); err != nil {
			req.cancel()
			jobs[i].err = err
			continue
		}
		admitted++
		i := i
		go func() {
			completions <- completion{index: i, res: <-jobs[i].done}
		}()
	}
	if admitted == 0 {
		// Nothing ran; report the first failure with its natural status.
		for _, p := range jobs {
			if p.err == ErrOverloaded || p.err == ErrDraining {
				writeSubmitError(w, p.err)
				return
			}
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: jobs[0].err.Error()})
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(line BatchLine) {
		if err := enc.Encode(line); err != nil {
			// Encode writes nothing on a marshal error; say so on the
			// line's index rather than silently dropping it.
			enc.Encode(BatchLine{Index: line.Index, Error: "encode response: " + err.Error()})
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Rejected jobs first (they are already decided), then admitted
	// jobs strictly in completion order.
	for i, p := range jobs {
		if p.err != nil {
			emit(BatchLine{Index: i, Error: p.err.Error()})
		}
	}
	for n := 0; n < admitted; n++ {
		c := <-completions
		if c.res.err != nil {
			emit(BatchLine{Index: c.index, Error: c.res.err.Error()})
			continue
		}
		emit(BatchLine{Index: c.index, OptimizeResponse: buildResponse(jobs[c.index].req, c.res)})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	queued := s.queued
	inflight := len(s.inflight)
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "queued": queued, "inflight": inflight,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "queued": queued, "inflight": inflight,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot()
	s.mu.Lock()
	inflight := len(s.inflight)
	s.mu.Unlock()
	extra := []metricKV{
		{name: "mpqd_inflight", kind: "gauge", value: inflight},
	}
	if s.plog != nil {
		extra = append(extra,
			metricKV{name: "mpqd_planlog_written_total", kind: "counter", value: s.plog.written.Load()},
			metricKV{name: "mpqd_planlog_dropped_total", kind: "counter", value: s.plog.dropped.Load()},
			metricKV{name: "mpqd_planlog_rotations_total", kind: "counter", value: s.plog.rotations.Load()},
		)
	}
	if ce, ok := s.cfg.Engine.(interface{ CacheTotals() mpq.CacheTotals }); ok {
		t := ce.CacheTotals()
		extra = append(extra,
			metricKV{name: "mpqd_cache_hits_total", kind: "counter", value: t.Hits},
			metricKV{name: "mpqd_cache_misses_total", kind: "counter", value: t.Misses},
			metricKV{name: "mpqd_cache_collapses_total", kind: "counter", value: t.Collapses},
			metricKV{name: "mpqd_cache_evictions_total", kind: "counter", value: t.Evictions},
			metricKV{name: "mpqd_cache_entries", kind: "gauge", value: t.Entries},
			metricKV{name: "mpqd_cache_bytes", kind: "gauge", value: t.Bytes},
		)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	snap.write(w, extra)
}
