// Command perfbench is the repository's benchmark. It drives the
// optimizer only through its entry points — mpq engines, the daemon's
// HTTP and wire fronts, netrun workers — runs one named workload in a
// closed loop, checks every answer against reference answers computed
// at set-up, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run) as the last line of standard
// output. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mpq"
)

// setupReps is how many times a run builds its workload from scratch;
// setup_s is the median, and the last build is the one measured.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// system is one built workload: its jobs and arrival orders, and the
// served path a request takes.
type system struct {
	jobs    []*job
	clients int
	warm    []int // untimed arrivals (indexes into jobs)
	timed   []int // measured arrivals
	tr      *tracer
	cache   *mpq.CachedEngine // zipf-http only
	// pass is the number of arrivals in one whole pass over the jobs (1
	// for a stream); blocks are made of whole passes.
	pass int
	// root is the layer the client's request span stands for: "server"
	// when a daemon sits between client and engine, else "client".
	root  string
	issue func(ctx context.Context, j *job) (srvID string, err error)
	stop  func()
}

// record is one request's outcome.
type record struct {
	job  int
	lat  time.Duration
	err  error
	span int32 // the request span (traced phases)
}

// phase is one closed-loop pass over an arrival order.
type phase struct {
	recs   []record
	wall   time.Duration
	cpu    time.Duration
	blocks []block
	peak   uint64          // peak resident Go memory in bytes
	cache  mpq.CacheTotals // counter deltas over the phase
	failed int
	errs   []string
}

// block is a run of consecutive arrivals made of whole passes (or, for a
// stream, a sixteenth of it). Throughput, CPU, allocation and peak memory
// are taken per block and reported as the median block, so a burst of
// load from outside the benchmark, or one badly timed collection, moves
// them less than it would move a run total.
type block struct {
	arrivals int
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	peak     uint64 // peak resident Go memory in bytes
}

// blockCount is how many blocks a phase is cut into (fewer when the
// phase has fewer passes).
const blockCount = 16

// mark is the process state when a block's first arrival is taken;
// peak is the resident peak of the block that ends there.
type mark struct {
	t     time.Time
	cpu   time.Duration
	alloc uint64
	peak  uint64
}

func takeMark(rs *residentSampler) mark {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return mark{t: time.Now(), cpu: cpuTime(), alloc: s[0].Value.Uint64(), peak: rs.take()}
}

// runPhase sends the arrivals in order from sys.clients closed-loop
// clients: each client takes the next arrival only after its previous
// request completed.
func (sys *system) runPhase(order []int, traced bool) *phase {
	sys.tr.on.Store(traced)
	defer sys.tr.on.Store(false)
	ph := &phase{recs: make([]record, len(order))}
	unit := sys.pass
	blockLen := unit * max(1, (len(order)/unit+blockCount-1)/blockCount)
	marks := make([]mark, (len(order)+blockLen-1)/blockLen+1)
	var c0 mpq.CacheTotals
	if sys.cache != nil {
		c0 = sys.cache.CacheTotals()
	}
	debug.FreeOSMemory() // collects, and returns set-up garbage to the OS
	rs := startSampler()
	defer rs.stop()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < sys.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				if i%blockLen == 0 {
					marks[i/blockLen] = takeMark(rs)
				}
				j := sys.jobs[order[i]]
				ctx, root := context.Background(), noSpan
				if traced {
					root = sys.tr.begin("request", noSpan, int32(i))
					ctx = withParent(ctx, root)
				}
				t := time.Now()
				srv, err := sys.issue(ctx, j)
				lat := time.Since(t)
				if traced {
					sys.tr.end(root)
					sys.tr.update(root, func(s *span) { s.Srv = srv })
				}
				ph.recs[i] = record{job: order[i], lat: lat, err: err, span: root}
			}
		}()
	}
	wg.Wait()
	marks[len(marks)-1] = takeMark(rs)
	ph.wall = marks[len(marks)-1].t.Sub(marks[0].t)
	ph.cpu = marks[len(marks)-1].cpu - marks[0].cpu
	for b := 0; b+1 < len(marks); b++ {
		ph.blocks = append(ph.blocks, block{
			arrivals: min(blockLen, len(order)-b*blockLen),
			wall:     marks[b+1].t.Sub(marks[b].t),
			cpu:      marks[b+1].cpu - marks[b].cpu,
			alloc:    marks[b+1].alloc - marks[b].alloc,
			peak:     marks[b+1].peak,
		})
	}
	if sys.cache != nil {
		c1 := sys.cache.CacheTotals()
		ph.cache = mpq.CacheTotals{
			Hits: c1.Hits - c0.Hits, Misses: c1.Misses - c0.Misses,
			Collapses: c1.Collapses - c0.Collapses, Evictions: c1.Evictions - c0.Evictions,
		}
	}
	for i, r := range ph.recs {
		if r.err != nil {
			ph.failed++
			if len(ph.errs) < 5 {
				ph.errs = append(ph.errs, fmt.Sprintf("arrival %d (job %d): %v", i, r.job, r.err))
			}
		}
	}
	return ph
}

// warmUp sends the warm-up arrivals; any failure fails the set-up.
func (sys *system) warmUp() error {
	if len(sys.warm) == 0 {
		return nil
	}
	if ph := sys.runPhase(sys.warm, false); ph.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %s", ph.failed, len(sys.warm), strings.Join(ph.errs, "; "))
	}
	return nil
}

func (ph *phase) latencies() []time.Duration {
	out := make([]time.Duration, len(ph.recs))
	for i, r := range ph.recs {
		out[i] = r.lat
	}
	return out
}

// residentBytes is the memory the Go runtime has mapped read-write and
// not released to the operating system: the process's resident Go
// memory, read without stopping the world into the caller's samples.
func residentBytes(s []metrics.Sample) uint64 {
	s[0].Name, s[1].Name = "/memory/classes/total:bytes", "/memory/classes/heap/released:bytes"
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// residentSampler tracks the peak of residentBytes, sampled every few
// milliseconds, since the last call to take.
type residentSampler struct {
	peak atomic.Uint64
	done chan struct{}
	exit chan struct{}
}

func startSampler() *residentSampler {
	rs := &residentSampler{done: make(chan struct{}), exit: make(chan struct{})}
	rs.peak.Store(residentBytes(make([]metrics.Sample, 2)))
	go func() {
		defer close(rs.exit)
		buf := make([]metrics.Sample, 2)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				rs.observe(residentBytes(buf))
			case <-rs.done:
				return
			}
		}
	}()
	return rs
}

func (rs *residentSampler) observe(v uint64) {
	for p := rs.peak.Load(); v > p && !rs.peak.CompareAndSwap(p, v); p = rs.peak.Load() {
	}
}

// take returns the peak since the previous take and starts a new one.
func (rs *residentSampler) take() uint64 {
	now := residentBytes(make([]metrics.Sample, 2))
	return max(rs.peak.Swap(now), now)
}

// stop ends sampling and returns once the sampling goroutine has exited.
func (rs *residentSampler) stop() {
	close(rs.done)
	<-rs.exit
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the nearest-rank q-quantile of ds (0 < q ≤ 1).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(float64(len(s))*q+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// endToEnd computes the end-to-end metrics of an untraced phase:
// latency quantiles over every request, and throughput, CPU and
// allocation per request and peak resident memory as the median over the
// phase's blocks.
func endToEnd(ph *phase, setup float64) map[string]metric {
	lat := ph.latencies()
	var qps, cpu, alloc, peak []float64
	for _, b := range ph.blocks {
		n := float64(b.arrivals)
		qps = append(qps, n/b.wall.Seconds())
		cpu = append(cpu, ms(b.cpu)/n)
		alloc = append(alloc, float64(b.alloc)/1024/n)
		peak = append(peak, float64(b.peak)/(1<<20))
	}
	return map[string]metric{
		"latency_p50_ms":  {ms(quantile(lat, 0.50)), "ms"},
		"latency_p90_ms":  {ms(quantile(lat, 0.90)), "ms"},
		"throughput_qps":  {medianFloat(qps), "1/s"},
		"cpu_ms_per_op":   {medianFloat(cpu), "ms"},
		"alloc_kb_per_op": {medianFloat(alloc), "KiB"},
		"peak_rss_mb":     {medianFloat(peak), "MiB"},
		"setup_s":         {setup, "s"},
	}
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: cold-inproc, zipf-http or tcp-wire")
	seed := flag.Int64("seed", 1, "workload seed; the optimizer sees only the generated queries")
	seconds := flag.Int("seconds", 12, "run size: fixed work sized to measure about this many seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	state := flag.String("state", filepath.Join(".bench_build", "perfbench"), "directory for exact-count records and span files")
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *workload {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {cold-inproc|zipf-http|tcp-wire}, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*state, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	ctx := context.Background()

	var setups []float64
	var sys *system
	for r := 0; r < setupReps; r++ {
		if sys != nil {
			sys.stop()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if sys, err = def.build(ctx, *seed, *seconds, newTracer()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up of %s: %v\n", def.name, err)
			return 1
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer sys.stop()
	setup := medianFloat(setups)

	var problems []string
	ph := sys.runPhase(sys.timed, false)
	problems = append(problems, ph.errs...)
	e2e := endToEnd(ph, setup)
	counts := exactCounts(sys.jobs)
	if err := checkCounts(*state, def.name, *seed, counts); err != nil {
		problems = append(problems, err.Error())
	}
	report(os.Stdout, def, *seed, sys, ph, e2e, setups, counts)

	res := result{Attempted: len(ph.recs), Failed: ph.failed, Metrics: e2e}
	if *trace == 1 {
		lm, tph, notes, err := tracedRun(ctx, sys, ph, counts, filepath.Join(*state, fmt.Sprintf("spans-%s-seed%d.jsonl", def.name, *seed)))
		if err != nil {
			problems = append(problems, err.Error())
		}
		if tph != nil {
			res.Attempted += len(tph.recs)
			res.Failed += tph.failed
			problems = append(problems, tph.errs...)
		}
		res.Metrics = lm
		if tph != nil {
			reportLayers(os.Stdout, def.name, ph, tph, lm, notes)
		}
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
