package core

import (
	"slices"
	"testing"
	"time"
)

func TestStragglerThreshold(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name  string
		done  []time.Duration
		mult  float64
		floor time.Duration
		want  time.Duration
		ready bool
	}{
		{name: "no samples", done: nil, mult: 2, floor: ms, ready: false},
		{name: "empty samples", done: []time.Duration{}, ready: false},
		{name: "one sample", done: []time.Duration{300 * ms}, mult: 2, floor: ms, want: 600 * ms, ready: true},
		{name: "odd count", done: []time.Duration{900 * ms, 100 * ms, 400 * ms}, mult: 2, floor: ms, want: 800 * ms, ready: true},
		{name: "even count takes upper median", done: []time.Duration{400 * ms, 100 * ms, 900 * ms, 200 * ms}, mult: 3, floor: ms, want: 1200 * ms, ready: true},
		{name: "floor dominates", done: []time.Duration{ms, 2 * ms, 3 * ms}, mult: 2, floor: 50 * ms, want: 50 * ms, ready: true},
		{name: "zero means defaults", done: []time.Duration{200 * ms}, want: 400 * ms, ready: true},
		{name: "default floor dominates", done: []time.Duration{10 * ms}, want: DefaultSpeculationFloor, ready: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := slices.Clone(c.done)
			got, ready := StragglerThreshold(c.done, c.mult, c.floor)
			if ready != c.ready || got != c.want {
				t.Fatalf("StragglerThreshold(%v, %g, %v) = (%v, %v), want (%v, %v)",
					c.done, c.mult, c.floor, got, ready, c.want, c.ready)
			}
			for i := range before {
				if c.done[i] != before[i] {
					t.Fatalf("input reordered: %v, was %v", c.done, before)
				}
			}
		})
	}
}
