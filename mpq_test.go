package mpq_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"mpq"
)

func demoQuery(t testing.TB) *mpq.Query {
	t.Helper()
	q := mpq.MustNewQuery([]mpq.QueryTable{
		{Name: "orders", Cardinality: 1e6},
		{Name: "customers", Cardinality: 1e4},
		{Name: "nations", Cardinality: 25},
		{Name: "lineitems", Cardinality: 4e6},
	})
	q.MustAddPredicate(mpq.Predicate{Left: 0, Right: 1, Selectivity: 1e-4})
	q.MustAddPredicate(mpq.Predicate{Left: 1, Right: 2, Selectivity: 0.04})
	q.MustAddPredicate(mpq.Predicate{Left: 0, Right: 3, Selectivity: 1e-6})
	q.Freeze()
	return q
}

func TestPublicAPIEndToEnd(t *testing.T) {
	ctx := context.Background()
	q := demoQuery(t)
	serialAns, err := mpq.NewSerialEngine().Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear})
	if err != nil {
		t.Fatal(err)
	}
	serial := serialAns.Best
	eng := mpq.NewInProcessEngine()
	for _, m := range []int{1, 2, 4} {
		ans, err := eng.Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear, Workers: m})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ans.Best.Cost-serial.Cost) > 1e-9*serial.Cost {
			t.Fatalf("m=%d: %g != serial %g", m, ans.Best.Cost, serial.Cost)
		}
		if err := mpq.ValidatePlan(ans.Best, q, mpq.DefaultCostModel()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicAPIMaxWorkers(t *testing.T) {
	if mpq.MaxWorkers(mpq.Linear, 8) != 16 {
		t.Fatal("MaxWorkers linear")
	}
	if mpq.MaxWorkers(mpq.Bushy, 9) != 8 {
		t.Fatal("MaxWorkers bushy")
	}
}

func TestPublicAPIWorkloadAndSimulation(t *testing.T) {
	cat, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(8, mpq.Star), 7)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 8 || q.N() != 8 {
		t.Fatal("workload shape")
	}
	eng := mpq.NewSimEngine(mpq.WithClusterModel(mpq.DefaultClusterModel()))
	ans, err := eng.Optimize(context.Background(), q, mpq.JobSpec{Space: mpq.Linear, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Cluster.Bytes == 0 || ans.Cluster.VirtualTime <= 0 {
		t.Fatalf("metrics %+v", *ans.Cluster)
	}
}

func TestPublicAPISerialization(t *testing.T) {
	q := demoQuery(t)
	q2, err := mpq.DecodeQuery(mpq.EncodeQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if q2.N() != q.N() {
		t.Fatal("query round trip")
	}
	ans, err := mpq.NewSerialEngine().Optimize(context.Background(), q,
		mpq.JobSpec{Space: mpq.Bushy, InterestingOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	p := ans.Best
	p2, err := mpq.DecodePlan(mpq.EncodePlan(p))
	if err != nil {
		t.Fatal(err)
	}
	if p2.String() != p.String() || p2.Cost != p.Cost {
		t.Fatal("plan round trip")
	}
}

func TestPublicAPIMultiObjective(t *testing.T) {
	q := demoQuery(t)
	ans, err := mpq.NewInProcessEngine().Optimize(context.Background(), q, mpq.JobSpec{
		Space: mpq.Linear, Workers: 2,
		Objective: mpq.MultiObjective, Alpha: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Frontier) == 0 {
		t.Fatal("no frontier")
	}
	if len(mpq.ExactFrontier(ans.Frontier)) != len(ans.Frontier) {
		t.Fatal("frontier not exact at alpha=1")
	}
}

func TestPublicAPIDistributed(t *testing.T) {
	w1, err := mpq.ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	w2, err := mpq.ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	eng, err := mpq.NewTCPEngine([]string{w1.Addr(), w2.Addr()},
		mpq.WithMasterOptions(mpq.MasterOptions{Timeout: 30 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := demoQuery(t)
	ans, err := eng.Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	serialAns, err := mpq.NewSerialEngine().Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear})
	if err != nil {
		t.Fatal(err)
	}
	serial := serialAns.Best
	if math.Abs(ans.Best.Cost-serial.Cost) > 1e-9*serial.Cost {
		t.Fatal("distributed optimum differs")
	}
}

// ExampleInProcessEngine_Optimize demonstrates the quick-start flow
// from the package documentation.
func ExampleInProcessEngine_Optimize() {
	q := mpq.MustNewQuery([]mpq.QueryTable{
		{Name: "A", Cardinality: 1000},
		{Name: "B", Cardinality: 100},
		{Name: "C", Cardinality: 10},
	})
	q.MustAddPredicate(mpq.Predicate{Left: 0, Right: 1, Selectivity: 0.01})
	q.MustAddPredicate(mpq.Predicate{Left: 1, Right: 2, Selectivity: 0.1})

	eng := mpq.NewInProcessEngine()
	ans, err := eng.Optimize(context.Background(), q, mpq.JobSpec{Space: mpq.Linear, Workers: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println(ans.Best.String())
	// Output: ((T2 HJ T1) HJ T0)
}

// ExampleMaxWorkers shows the scheme's parallelism ceiling.
func ExampleMaxWorkers() {
	fmt.Println(mpq.MaxWorkers(mpq.Linear, 20))
	fmt.Println(mpq.MaxWorkers(mpq.Bushy, 18))
	// Output:
	// 1024
	// 64
}
