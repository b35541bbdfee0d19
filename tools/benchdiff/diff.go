package main

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the testable core of benchdiff: pure functions from the
// two {benchmark: ns/op} maps to a verdict, with all I/O left to main.

// seqName/parName are the sweep benchmark pair: parName is excluded
// from the ratio gate (ns/op scales with core count) and instead gated
// by -min-sweep-speedup against seqName from the same run.
const seqName, parName = "BenchmarkScenarioSweep", "BenchmarkSweepParallel"

// minGatedNs is the smallest baseline ns/op the ratio gate trusts. A
// faster benchmark's ratio is mostly scheduler and cache noise:
// BenchmarkTable1Overview (~31 µs) measured 40.7 µs and 67 µs in two
// runs of unchanged code, and as the minimum ratio it set the floor
// that flagged unchanged macro benchmarks.
const minGatedNs = 10e6

// row is one benchmark's comparison.
type row struct {
	name       string
	base, res  float64
	ratio      float64
	normalized float64
	// ungated rows (baseline under the gate minimum) are printed but
	// neither set the floor nor fail the gate.
	ungated   bool
	regressed bool
}

// compareResult is the ratio gate's full verdict.
type compareResult struct {
	// floor is the machine-speed factor: the minimum result/baseline
	// ratio across the gated benchmarks (1 when none is gated).
	floor float64
	// rows lists every compared benchmark, sorted by name.
	rows []row
	// failed reports whether any row regressed beyond the threshold.
	failed bool
}

// compare runs the min-ratio-normalized regression gate: each
// benchmark's result/baseline ratio is divided by the suite's minimum
// ratio (the least-slowed benchmark bounds how much of a slowdown is
// hardware), and rows exceeding 1+threshold are flagged. parName is
// excluded (core-count-dependent by design); benchmarks missing from
// either side are skipped (dropped or new benchmarks are not
// regressions). Benchmarks whose baseline is under minNs ns/op are
// compared and printed but ungated: they neither set the floor nor
// fail.
func compare(base, res map[string]float64, threshold, minNs float64) (compareResult, error) {
	var out compareResult
	//simlint:allow maprange -- rows are sorted by name immediately below; map order cannot reach the report.
	for name, b := range base {
		if name == parName {
			continue
		}
		r, ok := res[name]
		if !ok || b <= 0 {
			continue
		}
		out.rows = append(out.rows, row{name: name, base: b, res: r, ratio: r / b, ungated: b < minNs})
	}
	if len(out.rows) == 0 {
		return out, fmt.Errorf("no benchmarks in common")
	}
	sort.Slice(out.rows, func(i, j int) bool { return out.rows[i].name < out.rows[j].name })

	out.floor = 1
	gated := false
	for _, r := range out.rows {
		if !r.ungated && (!gated || r.ratio < out.floor) {
			out.floor, gated = r.ratio, true
		}
	}
	if out.floor <= 0 {
		return out, fmt.Errorf("non-positive ratio floor %.3f", out.floor)
	}
	for i := range out.rows {
		out.rows[i].normalized = out.rows[i].ratio / out.floor
		if !out.rows[i].ungated && out.rows[i].normalized > 1+threshold {
			out.rows[i].regressed = true
			out.failed = true
		}
	}
	return out, nil
}

// render formats the gate's table.
func (c compareResult) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine-speed factor (minimum result/baseline ratio): %.3f\n", c.floor)
	fmt.Fprintf(&b, "%-40s %14s %14s %8s %10s\n", "benchmark", "baseline ns/op", "result ns/op", "ratio", "vs floor")
	for _, r := range c.rows {
		verdict := "ok"
		switch {
		case r.regressed:
			verdict = "REGRESSION"
		case r.ungated:
			verdict = "(ungated: baseline under gate minimum)"
		}
		fmt.Fprintf(&b, "%-40s %14.0f %14.0f %8.3f %9.3fx %s\n",
			r.name, r.base, r.res, r.ratio, r.normalized, verdict)
	}
	return b.String()
}

// allocRow is one benchmark's allocs/op comparison.
type allocRow struct {
	name      string
	base, res float64
	ratio     float64
	regressed bool
}

// allocResult is the allocs/op gate's verdict.
type allocResult struct {
	rows   []allocRow
	failed bool
}

// compareAllocs runs the allocs/op regression gate. Unlike the ns/op
// gate there is no machine-speed normalization: allocation counts do
// not depend on runner hardware, so each benchmark's result/baseline
// ratio gates directly against 1+threshold. The threshold absorbs the
// residual nondeterminism that does exist (GC emptying a sync.Pool
// forces reallocation, so allocs/op jitters a few percent run to run).
// parName is gated too — its allocation count, unlike its ns/op, does
// not scale with core count. Benchmarks missing from either side are
// skipped.
func compareAllocs(base, res map[string]float64, threshold float64) (allocResult, error) {
	var out allocResult
	//simlint:allow maprange -- rows are sorted by name immediately below; map order cannot reach the report.
	for name, b := range base {
		r, ok := res[name]
		if !ok || b <= 0 {
			continue
		}
		out.rows = append(out.rows, allocRow{name: name, base: b, res: r, ratio: r / b})
	}
	if len(out.rows) == 0 {
		return out, fmt.Errorf("no benchmarks in common")
	}
	sort.Slice(out.rows, func(i, j int) bool { return out.rows[i].name < out.rows[j].name })
	for i := range out.rows {
		if out.rows[i].ratio > 1+threshold {
			out.rows[i].regressed = true
			out.failed = true
		}
	}
	return out, nil
}

// render formats the allocs gate's table.
func (c allocResult) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %14s %14s %8s\n", "benchmark", "base allocs/op", "res allocs/op", "ratio")
	for _, r := range c.rows {
		verdict := "ok"
		if r.regressed {
			verdict = "REGRESSION"
		}
		fmt.Fprintf(&b, "%-40s %14.0f %14.0f %8.3f %s\n", r.name, r.base, r.res, r.ratio, verdict)
	}
	return b.String()
}

// sweepSpeedup evaluates the same-run shard-executor assertion:
// seqName's ns/op over parName's must reach minSpeedup. With minSpeedup
// <= 0 the check is disabled (ok, no failure). Both benchmarks missing
// or non-positive while the check is enabled is a failure — a silently
// skipped gate reads as green.
func sweepSpeedup(res map[string]float64, minSpeedup float64) (speedup float64, present bool, failed bool) {
	seq, par := res[seqName], res[parName]
	present = seq > 0 && par > 0
	if present {
		speedup = seq / par
	}
	if minSpeedup <= 0 {
		return speedup, present, false
	}
	if !present {
		return 0, false, true
	}
	return speedup, true, speedup < minSpeedup
}
