package experiments

import (
	"fmt"

	"mpq/internal/cluster"
	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/query"
	"mpq/internal/workload"
)

// runMPQ simulates one MPQ job on the configured cluster, honoring the
// experiment's cancellation context.
func runMPQ(cfg Config, q *query.Query, spec core.JobSpec) (*cluster.Result, error) {
	return cluster.RunMPQ(cfg.context(), cfg.Model, q, spec, cluster.Faults{})
}

// Fig2Panel is one curve set of Figure 2: MPQ scaling for one plan space
// and query size, single-objective, reporting total time, max worker
// time, peak worker memory and network traffic.
type Fig2Panel struct {
	Space  partition.Space
	N      int
	Points []Point
}

// Fig2 reproduces Figure 2: MPQ scaling on search spaces large enough to
// justify parallelization. Paper sizes: Linear-20, Linear-24, Bushy-15,
// Bushy-18; the quick configuration uses Linear-14/16 and Bushy-10/12.
func Fig2(cfg Config) ([]Fig2Panel, error) {
	type pn struct {
		space partition.Space
		n     int
	}
	var panels []pn
	if cfg.Full {
		panels = []pn{
			{partition.Linear, 20}, {partition.Linear, 24},
			{partition.Bushy, 15}, {partition.Bushy, 18},
		}
	} else {
		panels = []pn{
			{partition.Linear, 14}, {partition.Linear, 16},
			{partition.Bushy, 10}, {partition.Bushy, 12},
		}
	}
	var out []Fig2Panel
	for _, p := range panels {
		panel, err := fig2Panel(cfg, p.space, p.n)
		if err != nil {
			return nil, err
		}
		out = append(out, panel)
		cfg.progressf("fig2: %v-%d done", p.space, p.n)
	}
	return out, nil
}

func fig2Panel(cfg Config, space partition.Space, n int) (Fig2Panel, error) {
	panel := Fig2Panel{Space: space, N: n}
	qs, err := cfg.batch(n, workload.Star)
	if err != nil {
		return panel, err
	}
	cap := cfg.MaxWorkers
	if cap > 128 {
		cap = 128 // Figure 2 stops at 128
	}
	for _, m := range workerCounts(partition.MaxWorkers(space, n), cap) {
		spec := core.JobSpec{Space: space, Workers: m}
		var t, wt, mem, bytes []float64
		for _, q := range qs {
			res, err := runMPQ(cfg, q, spec)
			if err != nil {
				return panel, err
			}
			t = append(t, ms(res.Metrics.VirtualTime))
			wt = append(wt, ms(res.Metrics.MaxWorkerTime))
			mem = append(mem, float64(res.Metrics.MaxMemoEntries))
			bytes = append(bytes, float64(res.Metrics.Bytes))
		}
		panel.Points = append(panel.Points, Point{
			Workers: m, TimeMs: median(t), WTimeMs: median(wt),
			MemoryRelations: median(mem), Bytes: median(bytes),
		})
	}
	return panel, nil
}

// Fig2Tables renders the Figure 2 panels.
func Fig2Tables(panels []Fig2Panel) []*Table {
	var out []*Table
	for _, p := range panels {
		t := &Table{
			Title:   fmt.Sprintf("Figure 2 — MPQ scaling, %v %d tables (single objective, medians)", p.Space, p.N),
			Columns: []string{"workers", "time(ms)", "w-time(ms)", "memory(relations)", "net(bytes)"},
		}
		for _, pt := range p.Points {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", pt.Workers),
				fmtFloat(pt.TimeMs), fmtFloat(pt.WTimeMs),
				fmtFloat(pt.MemoryRelations), fmtFloat(pt.Bytes),
			})
		}
		out = append(out, t)
	}
	return out
}
