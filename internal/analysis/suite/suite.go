// Package suite registers every analyzer cmd/mpqlint runs. The
// meta-test in internal/analysis/suite_test.go walks this list and
// refuses any analyzer that ships without golden fixtures, so adding
// an entry here without testdata fails the build.
package suite

import (
	"mpq/internal/analysis"
	"mpq/internal/analysis/arenaescape"
	"mpq/internal/analysis/copylocks"
	"mpq/internal/analysis/ctxflow"
	"mpq/internal/analysis/lockorder"
	"mpq/internal/analysis/nilness"
	"mpq/internal/analysis/tagswitch"
)

// All returns the full analyzer suite in the order findings are
// attributed: the four repository-invariant analyzers first, then the
// stdlib-only ports of the upstream nilness and copylocks passes (the
// offline build cannot vendor golang.org/x/tools). lostcancel has no
// port: `go vet` in scripts/lint.sh runs the upstream pass, and the
// rule it would add — a named cancel never used — does not compile.
// copylocks keeps its port because vet misses a lock-bearing named
// result.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		arenaescape.Analyzer,
		ctxflow.Analyzer,
		lockorder.Analyzer,
		tagswitch.Analyzer,
		copylocks.Analyzer,
		nilness.Analyzer,
	}
}
