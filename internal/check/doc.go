// Package check is the repo's invariant lint suite: go/analysis analyzers
// that move the guarantees the test suites prove dynamically — bitwise
// serial==parallel==cached equality, zero-alloc steady-state stepping,
// content-addressed cache-key completeness, sentinel-error discipline —
// to compile time, so a violation is flagged at the line that introduces
// it instead of hours later by a flaky-looking CI diff.
//
// Four analyzers, all driven by //sldf: source directives:
//
//   - determinism: in packages whose source carries a package-level
//     //sldf:deterministic directive, flags map iteration whose body is
//     not provably order-insensitive, global math/rand state, and wall
//     clock (time.Now/Since/Until) reads. Benign sites are annotated
//     //sldf:nondeterministic-ok <reason> (the reason is mandatory).
//
//   - hotpath: for functions and function literals annotated
//     //sldf:hotpath, flags heap-allocating constructs — fmt calls,
//     map/slice/pointer composite literals, make/new, appends that grow a
//     different slice than they were given, capturing closures, and
//     implicit interface boxing — complementing the runtime
//     AllocsPerRun==0 pins with point-of-introduction diagnostics.
//     Deliberate cold-path allocations are annotated
//     //sldf:alloc-ok <reason>.
//
//   - cachekey: a key-serialization function annotated
//     //sldf:cachekey <Type> must reference every exported field of that
//     spec struct (directly or through same-package callees), unless the
//     field is marked //sldf:keyignore <reason> at its declaration. This
//     machine-checks the "every result-affecting input is in the content
//     address" contract of pointKey/cacheID/collectiveKey.
//
//   - sentinel: package-level error values named Err*/err* must be
//     matched with errors.Is, never == / != or string comparison of
//     err.Error().
//
// cmd/sldfcheck is the driver; `sldfcheck ./...` runs the suite over the
// module via `go vet -vettool`. See README "Static analysis & invariants".
package check

import "golang.org/x/tools/go/analysis"

// Analyzers returns the full suite in a stable order, for the sldfcheck
// driver and the programmatic self-test.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DeterminismAnalyzer,
		HotpathAnalyzer,
		CacheKeyAnalyzer,
		SentinelAnalyzer,
	}
}
