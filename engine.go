package mpq

import (
	"context"
	"fmt"
	"time"

	"mpq/internal/cache"
	"mpq/internal/cluster"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/netrun"
)

// Engine is the unified optimizer interface: one partitioning scheme,
// four execution substrates. Every engine runs the identical worker
// code on the identical plan-space partitions, so for the same query
// and JobSpec all engines return the same optimal plan (bit-identical
// under wire encoding) — the paper's central claim, expressed as an
// interface.
//
//   - NewSerialEngine   — the classical single-node dynamic program.
//   - NewInProcessEngine — goroutine workers in this process.
//   - NewSimEngine      — the deterministic shared-nothing cluster
//     simulator; answers carry ClusterMetrics.
//   - NewTCPEngine      — the fault-tolerant TCP master/worker runtime;
//     answers carry NetStats.
//
// Optimize runs one query. OptimizeBatch pipelines a batch of
// independent queries through the engine; answers come back in input
// order and are bit-identical to running each job by itself. Both
// honor ctx: cancellation stops the dynamic program between (and
// periodically within) cardinality levels, aborts in-flight network
// work, and returns an error wrapping context.Canceled (or
// context.DeadlineExceeded) with no goroutine left behind. Per-job
// deadlines flow from context.WithDeadline.
type Engine interface {
	Optimize(ctx context.Context, q *Query, spec JobSpec) (*Answer, error)
	OptimizeBatch(ctx context.Context, jobs []Job) ([]*Answer, error)
}

// Job is one (query, job spec) unit of an OptimizeBatch call.
type Job struct {
	Query *Query
	Spec  JobSpec
}

// NetStats records the measured TCP traffic of a distributed answer
// (TCPEngine); see Answer.Net.
type NetStats = core.NetStats

// EngineOption configures an engine constructor. Options apply to the
// engines they are meaningful for and are ignored by the others, so
// one option list can configure a table of engines:
//
//	WithParallelism   — InProcessEngine
//	WithClusterModel  — SimEngine
//	WithClusterFaults — SimEngine
//	WithMasterOptions — TCPEngine
//	WithCostModel     — every engine
type EngineOption func(*engineConfig)

type engineConfig struct {
	parallelism  int
	clusterModel ClusterModel
	faults       ClusterFaults
	masterOpts   MasterOptions
	costModel    CostModel
}

func newEngineConfig(opts []EngineOption) engineConfig {
	cfg := engineConfig{clusterModel: cluster.Default()}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// applySpec fills spec defaults the engine was configured with: a job
// that does not choose its own cost model inherits the engine's.
func (c *engineConfig) applySpec(spec JobSpec) JobSpec {
	if spec.CostModel == (cost.Model{}) {
		spec.CostModel = c.costModel
	}
	return spec
}

// WithParallelism caps the number of concurrently running worker
// goroutines of an InProcessEngine (the paper's executors-per-node
// knob). n < 1 means one goroutine per plan-space partition.
func WithParallelism(n int) EngineOption {
	return func(c *engineConfig) { c.parallelism = n }
}

// WithClusterModel sets the simulated cluster parameters of a
// SimEngine. The default is DefaultClusterModel().
func WithClusterModel(m ClusterModel) EngineOption {
	return func(c *engineConfig) { c.clusterModel = m }
}

// WithClusterFaults scripts worker deaths for every query a SimEngine
// optimizes; the recovery overhead shows up in Answer.Cluster.
func WithClusterFaults(f ClusterFaults) EngineOption {
	return func(c *engineConfig) { c.faults = f }
}

// WithMasterOptions sets the fault-tolerance configuration of a
// TCPEngine: per-attempt timeout, retry budget, worker exclusion, and
// per-worker weights.
func WithMasterOptions(o MasterOptions) EngineOption {
	return func(c *engineConfig) { c.masterOpts = o }
}

// WithCostModel sets the engine's default cost model, used by every
// job whose JobSpec.CostModel is the zero value. The zero default is
// DefaultCostModel().
func WithCostModel(m CostModel) EngineOption {
	return func(c *engineConfig) { c.costModel = m }
}

// sequentialBatch runs a batch one job at a time through eng — the
// batch semantics of the engines whose substrate has no cross-query
// state to share. Answers are bit-identical to individual Optimize
// calls by construction; the first failure aborts the batch.
func sequentialBatch(ctx context.Context, eng Engine, jobs []Job) ([]*Answer, error) {
	answers := make([]*Answer, len(jobs))
	for i, job := range jobs {
		ans, err := eng.Optimize(ctx, job.Query, job.Spec)
		if err != nil {
			return nil, fmt.Errorf("batch job %d: %w", i, err)
		}
		answers[i] = ans
	}
	return answers, nil
}

// SerialEngine is the classical single-node dynamic program — the
// baseline every speedup is measured against. It ignores
// JobSpec.Workers and always searches the unpartitioned plan space
// with one worker.
type SerialEngine struct {
	cfg engineConfig
}

// NewSerialEngine returns the baseline serial engine. Applicable
// options: WithCostModel.
func NewSerialEngine(opts ...EngineOption) *SerialEngine {
	return &SerialEngine{cfg: newEngineConfig(opts)}
}

// Optimize implements Engine by running the unconstrained dynamic
// program (JobSpec.Workers is overridden to 1).
func (e *SerialEngine) Optimize(ctx context.Context, q *Query, spec JobSpec) (*Answer, error) {
	spec = e.cfg.applySpec(spec)
	spec.Workers = 1
	return core.OptimizeContext(ctx, q, spec, 1)
}

// OptimizeBatch implements Engine by optimizing the jobs sequentially.
func (e *SerialEngine) OptimizeBatch(ctx context.Context, jobs []Job) ([]*Answer, error) {
	return sequentialBatch(ctx, e, jobs)
}

// InProcessEngine runs MPQ with goroutine workers — the shared-nothing
// algorithm on a single machine, one goroutine per plan-space
// partition (capped by WithParallelism).
//
// Worker goroutines draw their DP memory (plan-node arena + memo
// table) from a process-wide recycled pool, so a stream of queries —
// in particular OptimizeBatch — reaches a steady state that allocates
// almost nothing per job: the first job grows the pool, later jobs
// borrow it back. See docs/perf.md for the design and measured
// numbers.
type InProcessEngine struct {
	cfg engineConfig
}

// NewInProcessEngine returns the goroutine-worker engine. Applicable
// options: WithParallelism, WithCostModel.
func NewInProcessEngine(opts ...EngineOption) *InProcessEngine {
	return &InProcessEngine{cfg: newEngineConfig(opts)}
}

// Optimize implements Engine.
func (e *InProcessEngine) Optimize(ctx context.Context, q *Query, spec JobSpec) (*Answer, error) {
	return core.OptimizeContext(ctx, q, e.cfg.applySpec(spec), e.cfg.parallelism)
}

// OptimizeBatch implements Engine by optimizing the jobs sequentially;
// each job already fans out across the configured goroutine workers,
// and jobs after the first reuse the pooled worker memory (memo
// capacity and arena slabs) the earlier jobs grew.
func (e *InProcessEngine) OptimizeBatch(ctx context.Context, jobs []Job) ([]*Answer, error) {
	return sequentialBatch(ctx, e, jobs)
}

// SimEngine runs MPQ on the deterministic shared-nothing cluster
// simulator: real worker code, byte-exact network accounting, virtual
// time. Every Answer carries the simulator's measurement record in
// Answer.Cluster.
type SimEngine struct {
	cfg engineConfig
}

// NewSimEngine returns the cluster-simulation engine. Applicable
// options: WithClusterModel, WithClusterFaults, WithCostModel.
func NewSimEngine(opts ...EngineOption) *SimEngine {
	return &SimEngine{cfg: newEngineConfig(opts)}
}

// Optimize implements Engine. Answer.Elapsed is the real wall-clock
// time of the simulation; Answer.MaxWorkerElapsed and the per-worker
// report Elapsed values are *virtual* compute times under the cluster
// model, and the cluster's virtual time, traffic and per-worker memory
// peak are in Answer.Cluster.
func (e *SimEngine) Optimize(ctx context.Context, q *Query, spec JobSpec) (*Answer, error) {
	spec = e.cfg.applySpec(spec)
	start := time.Now()
	res, err := cluster.RunMPQ(ctx, e.cfg.clusterModel, q, spec, e.cfg.faults)
	if err != nil {
		return nil, err
	}
	met := res.Metrics
	return &Answer{
		Best:             res.Best,
		Frontier:         res.Frontier,
		Stats:            met.Work,
		MaxWorkerStats:   res.MaxWorkerStats,
		PerWorker:        res.PerWorker,
		Elapsed:          time.Since(start),
		MaxWorkerElapsed: met.MaxWorkerTime,
		Cluster:          &met,
	}, nil
}

// OptimizeBatch implements Engine by simulating the jobs sequentially
// (the simulator models one query occupying the cluster at a time).
func (e *SimEngine) OptimizeBatch(ctx context.Context, jobs []Job) ([]*Answer, error) {
	return sequentialBatch(ctx, e, jobs)
}

// TCPEngine runs MPQ over the fault-tolerant TCP master/worker
// runtime. Every Answer carries measured traffic in Answer.Net.
// OptimizeBatch pipelines the partitions of many queries through one
// pool of keep-alive connections — in a failure-free batch the master
// dials each worker exactly once (observable as Answer.Net.Dials;
// transport failures force redials).
type TCPEngine struct {
	ms  *netrun.Master
	cfg engineConfig
}

// NewTCPEngine returns a TCP engine over the given worker addresses
// (start workers with ListenWorker or `mpqnode worker`). Applicable
// options: WithMasterOptions, WithCostModel.
func NewTCPEngine(addrs []string, opts ...EngineOption) (*TCPEngine, error) {
	cfg := newEngineConfig(opts)
	ms, err := netrun.NewMasterWithOptions(addrs, cfg.masterOpts)
	if err != nil {
		return nil, err
	}
	return &TCPEngine{ms: ms, cfg: cfg}, nil
}

// Optimize implements Engine. The runtime fills Answer.Net directly.
func (e *TCPEngine) Optimize(ctx context.Context, q *Query, spec JobSpec) (*Answer, error) {
	return e.ms.OptimizeContext(ctx, q, e.cfg.applySpec(spec))
}

// OptimizeBatch implements Engine; see netrun.Master.OptimizeBatch for
// the dispatch and failure semantics.
func (e *TCPEngine) OptimizeBatch(ctx context.Context, jobs []Job) ([]*Answer, error) {
	njobs := make([]netrun.Job, len(jobs))
	for i, job := range jobs {
		njobs[i] = netrun.Job{Query: job.Query, Spec: e.cfg.applySpec(job.Spec)}
	}
	return e.ms.OptimizeBatch(ctx, njobs)
}

// CacheConfig parameterizes the plan cache of a CachedEngine.
// MaxBytes is the eviction budget (encoded keys + encoded plans +
// bookkeeping); 0 means unlimited.
type CacheConfig = cache.Config

// CacheTotals is a snapshot of a CachedEngine's cache-wide counters:
// hits, misses, singleflight/batch collapses, evictions, fingerprint
// collisions, and current occupancy.
type CacheTotals = cache.Totals

// CachedEngine wraps any Engine with a fingerprint-keyed plan cache:
// repeated optimization requests are served from the store instead of
// re-running the dynamic program, concurrent identical requests
// collapse onto one computation (singleflight), and the store is kept
// under a byte budget by cost-weighted LRU eviction (expensive-to-
// recompute plans survive longer). Build one with WithCache.
//
// Cached answers are bit-identical (wire plan fingerprint) to the
// wrapped engine's answers: the cache serves shallow copies sharing the
// immutable plan trees. Each answer's Answer.Cache records whether it
// was a hit, a collapse, or a miss, plus the cache-wide counters at
// serve time.
//
// The cache keys on the canonical wire encoding of (query, JobSpec) —
// join graph, cardinalities, selectivities, plan space, worker count,
// objective and cost model — so anything that could change the chosen
// plan changes the key. Note that a zero JobSpec.CostModel is resolved
// to the engine's default *inside* the wrapped engine: each
// CachedEngine owns a private cache, so a zero-model key can never
// alias across engines configured with different WithCostModel
// defaults.
type CachedEngine struct {
	inner Engine
	cache *cache.Cache
}

// WithCache wraps an engine with a plan cache. It composes with every
// engine — serial, in-process, simulated and TCP — because it sits
// entirely above the Engine interface.
func WithCache(eng Engine, cfg CacheConfig) *CachedEngine {
	return &CachedEngine{inner: eng, cache: cache.New(cfg)}
}

// Optimize implements Engine. A stored answer is served without
// touching the wrapped engine; concurrent identical misses run one
// inner Optimize. If the computing caller's context is canceled
// mid-flight, leadership hands off to a waiting identical request
// rather than failing it.
func (e *CachedEngine) Optimize(ctx context.Context, q *Query, spec JobSpec) (*Answer, error) {
	return e.cache.Optimize(ctx, q, spec, e.inner.Optimize)
}

// OptimizeBatch implements Engine with in-batch deduplication: cache
// hits are served from the store, duplicate jobs within the batch
// collapse onto one computation, and only the distinct misses reach the
// wrapped engine's OptimizeBatch — in a single call, so its batch
// pipelining (e.g. the TCP master's connection reuse) is preserved.
func (e *CachedEngine) OptimizeBatch(ctx context.Context, jobs []Job) ([]*Answer, error) {
	cjobs := make([]cache.BatchJob, len(jobs))
	for i, job := range jobs {
		cjobs[i] = cache.BatchJob{Query: job.Query, Spec: job.Spec}
	}
	return e.cache.OptimizeBatch(ctx, cjobs, func(ctx context.Context, miss []cache.BatchJob) ([]*Answer, error) {
		inner := make([]Job, len(miss))
		for i, job := range miss {
			inner[i] = Job{Query: job.Query, Spec: job.Spec}
		}
		return e.inner.OptimizeBatch(ctx, inner)
	})
}

// CacheTotals returns a snapshot of the cache-wide counters.
func (e *CachedEngine) CacheTotals() CacheTotals { return e.cache.Totals() }

// Compile-time proof that all engines implement Engine.
var (
	_ Engine = (*SerialEngine)(nil)
	_ Engine = (*InProcessEngine)(nil)
	_ Engine = (*SimEngine)(nil)
	_ Engine = (*TCPEngine)(nil)
	_ Engine = (*CachedEngine)(nil)
)
