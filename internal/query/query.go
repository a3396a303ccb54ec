// Package query defines the optimizer's problem model: a set of tables
// to join, connected by equality predicates with selectivity estimates.
//
// This follows §3 of the paper: a query is a set Q of tables; tables are
// numbered consecutively from 0 to |Q|-1 and all workers must use the
// same numbering so that the plan-space partitions tile the full space.
package query

import (
	"fmt"
	"math"

	"mpq/internal/bitset"
)

// Table is one base relation of the query with the statistics the cost
// model needs.
type Table struct {
	Name        string
	Cardinality float64
}

// Predicate is an equality join predicate between an attribute of table
// Left and an attribute of table Right (query-local table indices).
// Selectivity is the fraction of the Cartesian product it retains.
// Attribute ordinals enable interesting-order reasoning: a sort-merge
// join on this predicate leaves its output sorted on both attributes.
type Predicate struct {
	Left, Right         int
	LeftAttr, RightAttr int
	Selectivity         float64
}

// NoOrder marks a plan whose output has no useful sort order.
const NoOrder = -1

// AttrID encodes (table, attribute ordinal) into a single comparable
// order identifier. Attribute ordinals must be below 1<<16.
func AttrID(table, attr int) int { return table<<16 | attr }

// Query is an immutable join query. Build it with New and AddPredicate,
// then call Freeze (or any read accessor, which freezes implicitly).
type Query struct {
	Tables []Table
	Preds  []Predicate

	frozen bool
	adj    [][]int // adj[t] = indices into Preds touching table t
}

// New creates a query over the given tables. At least two tables and at
// most bitset.MaxTables are supported.
func New(tables []Table) (*Query, error) {
	if len(tables) < 1 {
		return nil, fmt.Errorf("query: need at least one table")
	}
	if len(tables) > bitset.MaxTables {
		return nil, fmt.Errorf("query: %d tables exceeds maximum %d", len(tables), bitset.MaxTables)
	}
	for i, t := range tables {
		if !(t.Cardinality > 0) || math.IsInf(t.Cardinality, 0) {
			return nil, fmt.Errorf("query: table %d (%s) has invalid cardinality %g", i, t.Name, t.Cardinality)
		}
	}
	q := &Query{Tables: append([]Table(nil), tables...)}
	return q, nil
}

// MustNew is New for known-valid inputs; it panics on error.
func MustNew(tables []Table) *Query {
	q, err := New(tables)
	if err != nil {
		panic(err)
	}
	return q
}

// AddPredicate registers an equality predicate. Self-joins on the same
// query table are rejected (the model joins distinct query tables; a
// relational self-join appears as two query tables referencing the same
// base relation).
func (q *Query) AddPredicate(p Predicate) error {
	if q.frozen {
		return fmt.Errorf("query: AddPredicate after freeze")
	}
	n := len(q.Tables)
	if p.Left < 0 || p.Left >= n || p.Right < 0 || p.Right >= n {
		return fmt.Errorf("query: predicate table index out of range: %d, %d (n=%d)", p.Left, p.Right, n)
	}
	if p.Left == p.Right {
		return fmt.Errorf("query: predicate joins table %d with itself", p.Left)
	}
	if !(p.Selectivity > 0 && p.Selectivity <= 1) {
		return fmt.Errorf("query: predicate selectivity %g outside (0,1]", p.Selectivity)
	}
	if p.LeftAttr < 0 || p.LeftAttr >= 1<<16 || p.RightAttr < 0 || p.RightAttr >= 1<<16 {
		return fmt.Errorf("query: attribute ordinal out of range")
	}
	q.Preds = append(q.Preds, p)
	return nil
}

// MustAddPredicate panics on error.
func (q *Query) MustAddPredicate(p Predicate) {
	if err := q.AddPredicate(p); err != nil {
		panic(err)
	}
}

// Freeze finalizes the query: no further predicates may be added and the
// adjacency index is built. Freeze is idempotent.
func (q *Query) Freeze() {
	if q.frozen {
		return
	}
	q.frozen = true
	q.adj = make([][]int, len(q.Tables))
	for i, p := range q.Preds {
		q.adj[p.Left] = append(q.adj[p.Left], i)
		q.adj[p.Right] = append(q.adj[p.Right], i)
	}
}

// N returns the number of tables.
func (q *Query) N() int { return len(q.Tables) }

// All returns the set of all query tables.
func (q *Query) All() bitset.Set { return bitset.Range(len(q.Tables)) }

// Card returns the base cardinality of table t.
func (q *Query) Card(t int) float64 { return q.Tables[t].Cardinality }

// SelBetween returns the combined selectivity of all predicates with one
// endpoint in a and the other in b. For disjoint a, b this is the factor
// by which the join of a-result and b-result shrinks the Cartesian
// product. Returns 1 if no predicate connects them (cross product).
func (q *Query) SelBetween(a, b bitset.Set) float64 {
	sel := 1.0
	for _, p := range q.Preds {
		l, r := bitset.Single(p.Left), bitset.Single(p.Right)
		if (a&l != 0 && b&r != 0) || (a&r != 0 && b&l != 0) {
			sel *= p.Selectivity
		}
	}
	return sel
}

// SelBetweenInflated is SelBetween at the high endpoint of a
// multiplicative uncertainty band: every straddling predicate
// contributes min(1, Selectivity·band) instead of its point estimate.
// band must be ≥ 1. It iterates predicates in the same index order as
// SelBetween so the two products associate floats identically, which
// keeps robust annotations reproducible across engines.
func (q *Query) SelBetweenInflated(a, b bitset.Set, band float64) float64 {
	sel := 1.0
	for _, p := range q.Preds {
		l, r := bitset.Single(p.Left), bitset.Single(p.Right)
		if (a&l != 0 && b&r != 0) || (a&r != 0 && b&l != 0) {
			sel *= math.Min(1, p.Selectivity*band)
		}
	}
	return sel
}

// ConnectingPreds appends to dst the indices of predicates with one
// endpoint in a and the other in b, and returns the extended slice.
// It iterates over the adjacency lists of the smaller side.
func (q *Query) ConnectingPreds(dst []int, a, b bitset.Set) []int {
	q.Freeze()
	small, big := a, b
	if small.Count() > big.Count() {
		small, big = big, small
	}
	small.ForEach(func(t int) {
		for _, pi := range q.adj[t] {
			p := q.Preds[pi]
			other := p.Left
			if other == t {
				other = p.Right
			}
			if big.Contains(other) {
				// Avoid double-adding predicates with both endpoints in
				// "small" (impossible: endpoints straddle a and b which
				// are disjoint in DP use; guarded anyway).
				if !small.Contains(other) {
					dst = append(dst, pi)
				}
			}
		}
	})
	return dst
}

// CardOf computes the estimated cardinality of joining exactly the tables
// in s: the product of base cardinalities and of the selectivities of all
// predicates entirely within s. O(n + |preds|); used for validation and
// as the once-per-set computation in the DP.
func (q *Query) CardOf(s bitset.Set) float64 {
	card := 1.0
	s.ForEach(func(t int) { card *= q.Tables[t].Cardinality })
	for _, p := range q.Preds {
		if s.Contains(p.Left) && s.Contains(p.Right) {
			card *= p.Selectivity
		}
	}
	return card
}

// Connected reports whether the join graph restricted to s is connected.
// Cross products make disconnected sets legal plans; the optimizer does
// not require connectivity (the paper explicitly allows Cartesian
// products), but workload tooling uses this to classify queries.
func (q *Query) Connected(s bitset.Set) bool {
	if s.IsEmpty() {
		return true
	}
	q.Freeze()
	start := s.Min()
	visited := bitset.Single(start)
	frontier := []int{start}
	for len(frontier) > 0 {
		t := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, pi := range q.adj[t] {
			p := q.Preds[pi]
			other := p.Left
			if other == t {
				other = p.Right
			}
			if s.Contains(other) && !visited.Contains(other) {
				visited = visited.Add(other)
				frontier = append(frontier, other)
			}
		}
	}
	return visited == s
}

// Validate performs structural checks and returns the first problem.
func (q *Query) Validate() error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("query: no tables")
	}
	if len(q.Tables) > bitset.MaxTables {
		return fmt.Errorf("query: too many tables")
	}
	for i, t := range q.Tables {
		if !(t.Cardinality > 0) || math.IsInf(t.Cardinality, 0) {
			return fmt.Errorf("query: table %d cardinality %g", i, t.Cardinality)
		}
	}
	for i, p := range q.Preds {
		if p.Left < 0 || p.Left >= len(q.Tables) || p.Right < 0 || p.Right >= len(q.Tables) || p.Left == p.Right {
			return fmt.Errorf("query: predicate %d endpoints (%d,%d) invalid", i, p.Left, p.Right)
		}
		if !(p.Selectivity > 0 && p.Selectivity <= 1) {
			return fmt.Errorf("query: predicate %d selectivity %g", i, p.Selectivity)
		}
	}
	return nil
}

// String renders a compact human-readable description.
func (q *Query) String() string {
	return fmt.Sprintf("Query{%d tables, %d predicates}", len(q.Tables), len(q.Preds))
}
