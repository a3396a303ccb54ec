package query

import (
	"math"
	"math/rand"
	"testing"

	"mpq/internal/bitset"
)

func tables(cards ...float64) []Table {
	ts := make([]Table, len(cards))
	for i, c := range cards {
		ts[i] = Table{Name: "T", Cardinality: c}
	}
	return ts
}

// chain4 builds T0 - T1 - T2 - T3 with selectivity 0.1 per edge.
func chain4(t *testing.T) *Query {
	t.Helper()
	q := MustNew(tables(100, 200, 300, 400))
	for i := 0; i < 3; i++ {
		q.MustAddPredicate(Predicate{Left: i, Right: i + 1, Selectivity: 0.1})
	}
	q.Freeze()
	return q
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty table list accepted")
	}
	if _, err := New(tables(0)); err == nil {
		t.Error("zero cardinality accepted")
	}
	if _, err := New(tables(-3)); err == nil {
		t.Error("negative cardinality accepted")
	}
	if _, err := New(make([]Table, bitset.MaxTables+1)); err == nil {
		t.Error("oversized query accepted")
	}
	if _, err := New([]Table{{Cardinality: math.Inf(1)}}); err == nil {
		t.Error("infinite cardinality accepted")
	}
	if _, err := New(tables(5)); err != nil {
		t.Errorf("single-table query rejected: %v", err)
	}
}

func TestAddPredicateValidation(t *testing.T) {
	q := MustNew(tables(10, 20))
	bad := []Predicate{
		{Left: 0, Right: 0, Selectivity: 0.5},
		{Left: -1, Right: 1, Selectivity: 0.5},
		{Left: 0, Right: 2, Selectivity: 0.5},
		{Left: 0, Right: 1, Selectivity: 0},
		{Left: 0, Right: 1, Selectivity: 1.5},
		{Left: 0, Right: 1, Selectivity: 0.5, LeftAttr: 1 << 16},
	}
	for i, p := range bad {
		if err := q.AddPredicate(p); err == nil {
			t.Errorf("case %d: bad predicate %+v accepted", i, p)
		}
	}
	if err := q.AddPredicate(Predicate{Left: 0, Right: 1, Selectivity: 1}); err != nil {
		t.Errorf("valid predicate rejected: %v", err)
	}
	q.Freeze()
	if err := q.AddPredicate(Predicate{Left: 0, Right: 1, Selectivity: 0.5}); err == nil {
		t.Error("AddPredicate after Freeze accepted")
	}
}

func TestCardOf(t *testing.T) {
	q := chain4(t)
	got := q.CardOf(bitset.Of(0, 1))
	want := 100.0 * 200 * 0.1
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("CardOf({0,1}) = %g want %g", got, want)
	}
	// Disconnected set: cross product, no predicate applies.
	got = q.CardOf(bitset.Of(0, 2))
	if got != 100.0*300 {
		t.Fatalf("CardOf({0,2}) = %g want %g", got, 100.0*300)
	}
	// Full query: all three predicates apply.
	got = q.CardOf(q.All())
	want = 100.0 * 200 * 300 * 400 * 0.1 * 0.1 * 0.1
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("CardOf(all) = %g want %g", got, want)
	}
	if q.CardOf(bitset.Empty()) != 1 {
		t.Fatal("CardOf(empty) should be 1 (empty product)")
	}
}

func TestSelBetween(t *testing.T) {
	q := chain4(t)
	if got := q.SelBetween(bitset.Of(0), bitset.Of(1)); got != 0.1 {
		t.Fatalf("SelBetween(0;1) = %g", got)
	}
	if got := q.SelBetween(bitset.Of(0), bitset.Of(2)); got != 1 {
		t.Fatalf("SelBetween(0;2) = %g (cross product)", got)
	}
	// {0,2} vs {1,3}: predicates 0-1, 1-2, 2-3 all straddle.
	got := q.SelBetween(bitset.Of(0, 2), bitset.Of(1, 3))
	if math.Abs(got-0.001) > 1e-15 {
		t.Fatalf("SelBetween = %g want 0.001", got)
	}
}

// Property: CardOf(s) == CardOf(l) * CardOf(r) * SelBetween(l, r) for any
// bipartition — the incremental identity the DP relies on.
func TestCardOfSplitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		ts := make([]Table, n)
		for i := range ts {
			ts[i] = Table{Cardinality: float64(1 + rng.Intn(1000))}
		}
		q := MustNew(ts)
		for e := 0; e < n; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				q.MustAddPredicate(Predicate{Left: a, Right: b, Selectivity: rng.Float64()*0.9 + 0.05})
			}
		}
		q.Freeze()
		s := bitset.Set(rng.Uint64()) & q.All()
		if s.Count() < 2 {
			continue
		}
		// Random bipartition of s.
		var l bitset.Set
		s.ForEach(func(i int) {
			if rng.Intn(2) == 0 {
				l = l.Add(i)
			}
		})
		r := s.Minus(l)
		if l.IsEmpty() || r.IsEmpty() {
			continue
		}
		whole := q.CardOf(s)
		split := q.CardOf(l) * q.CardOf(r) * q.SelBetween(l, r)
		if math.Abs(whole-split) > 1e-6*math.Max(whole, split) {
			t.Fatalf("split identity broken: %g vs %g (s=%v l=%v)", whole, split, s, l)
		}
	}
}

func TestConnectingPreds(t *testing.T) {
	q := chain4(t)
	ps := q.ConnectingPreds(nil, bitset.Of(1), bitset.Of(0, 2))
	if len(ps) != 2 {
		t.Fatalf("ConnectingPreds = %v, want 2 entries", ps)
	}
	ps = q.ConnectingPreds(nil, bitset.Of(0), bitset.Of(3))
	if len(ps) != 0 {
		t.Fatalf("ConnectingPreds across gap = %v", ps)
	}
	// Reuse of dst slice.
	dst := make([]int, 0, 4)
	ps = q.ConnectingPreds(dst, bitset.Of(0, 1), bitset.Of(2, 3))
	if len(ps) != 1 || q.Preds[ps[0]].Left != 1 {
		t.Fatalf("ConnectingPreds = %v", ps)
	}
}

func TestConnected(t *testing.T) {
	q := chain4(t)
	if !q.Connected(q.All()) {
		t.Fatal("chain should be connected")
	}
	if q.Connected(bitset.Of(0, 2)) {
		t.Fatal("{0,2} should be disconnected in a chain")
	}
	if !q.Connected(bitset.Of(1)) {
		t.Fatal("singleton should be connected")
	}
	if !q.Connected(bitset.Empty()) {
		t.Fatal("empty set should be connected")
	}
}

func TestValidate(t *testing.T) {
	q := chain4(t)
	if err := q.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	// Corrupt a predicate under the hood.
	q2 := MustNew(tables(1, 2))
	q2.Preds = append(q2.Preds, Predicate{Left: 0, Right: 0, Selectivity: 0.5})
	if err := q2.Validate(); err == nil {
		t.Fatal("self-join predicate passed Validate")
	}
	q3 := MustNew(tables(1, 2))
	q3.Preds = append(q3.Preds, Predicate{Left: 0, Right: 1, Selectivity: 2})
	if err := q3.Validate(); err == nil {
		t.Fatal("selectivity 2 passed Validate")
	}
	// New rejects an infinite cardinality; Validate must too, because a
	// Query can be built by assigning Tables directly.
	q4 := MustNew(tables(1, 2))
	q4.Tables[1].Cardinality = math.Inf(1)
	if err := q4.Validate(); err == nil {
		t.Fatal("+Inf cardinality passed Validate")
	}
}

func TestAttrID(t *testing.T) {
	if AttrID(0, 0) == AttrID(0, 1) || AttrID(1, 0) == AttrID(0, 1) {
		t.Fatal("AttrID collisions")
	}
	if AttrID(3, 7) != 3<<16|7 {
		t.Fatalf("AttrID(3,7) = %d", AttrID(3, 7))
	}
}

func TestString(t *testing.T) {
	q := chain4(t)
	if got := q.String(); got != "Query{4 tables, 3 predicates}" {
		t.Fatalf("String = %q", got)
	}
}
