package main

import (
	"math"
	"strings"
	"testing"
)

func names(c compareResult) map[string]row {
	out := make(map[string]row, len(c.rows))
	for _, r := range c.rows {
		out[r.name] = r
	}
	return out
}

// TestUniformSlowdownIsHardware pins the min-ratio normalization: a
// suite uniformly 2x slower reads as a slower machine, not as
// regressions.
func TestUniformSlowdownIsHardware(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 2000, "BenchmarkC": 30}
	res := map[string]float64{"BenchmarkA": 200, "BenchmarkB": 4000, "BenchmarkC": 60}
	c, err := compare(base, res, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.failed {
		t.Fatalf("uniform 2x slowdown flagged as regression: %+v", c.rows)
	}
	if math.Abs(c.floor-2) > 1e-9 {
		t.Errorf("floor = %.3f, want 2.0", c.floor)
	}
	for _, r := range c.rows {
		if math.Abs(r.normalized-1) > 1e-9 {
			t.Errorf("%s normalized = %.3f, want 1.0", r.name, r.normalized)
		}
	}
}

// TestSingleRegressionGates: one benchmark 30% over the floor fails the
// 25% gate, the rest stay ok.
func TestSingleRegressionGates(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100, "BenchmarkC": 100}
	res := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 130, "BenchmarkC": 110}
	c, err := compare(base, res, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !c.failed {
		t.Fatal("30% single-benchmark regression passed the 25% gate")
	}
	rows := names(c)
	if !rows["BenchmarkB"].regressed {
		t.Error("BenchmarkB not flagged")
	}
	if rows["BenchmarkA"].regressed || rows["BenchmarkC"].regressed {
		t.Errorf("within-threshold benchmarks flagged: %+v", rows)
	}
}

// TestBoundaryNotFlagged: exactly threshold over the floor is allowed
// (the gate is strictly greater-than).
func TestBoundaryNotFlagged(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100}
	res := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 125}
	c, err := compare(base, res, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.failed {
		t.Fatalf("exact-threshold ratio flagged: %+v", c.rows)
	}
}

// TestSweepParallelExcluded: parName influences neither the floor nor
// the gate, however wild its ratio.
func TestSweepParallelExcluded(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, parName: 100}
	res := map[string]float64{"BenchmarkA": 100, parName: 5000}
	c, err := compare(base, res, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.failed {
		t.Fatal("SweepParallel ratio leaked into the gate")
	}
	if _, ok := names(c)[parName]; ok {
		t.Fatal("SweepParallel present in gated rows")
	}
	// And its tiny ratio must not become the floor either (which would
	// flag everything else).
	res2 := map[string]float64{"BenchmarkA": 100, parName: 10}
	c2, err := compare(base, res2, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c2.failed || c2.floor != 1 {
		t.Fatalf("SweepParallel improvement moved the floor: floor=%.3f failed=%v", c2.floor, c2.failed)
	}
}

// TestContentionSweepGated: the contention benchmark pins its Jobs to 1
// (core-count-independent ns/op), so it takes no SweepParallel-style
// exclusion — a regression there must fail the ratio gate like any
// other benchmark.
func TestContentionSweepGated(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, "BenchmarkContentionSweep": 100}
	res := map[string]float64{"BenchmarkA": 100, "BenchmarkContentionSweep": 200}
	c, err := compare(base, res, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !c.failed || !names(c)["BenchmarkContentionSweep"].regressed {
		t.Fatalf("ContentionSweep regression slipped past the gate: %+v", c.rows)
	}
}

// TestDroppedAndNewBenchmarksSkipped: benchmarks on one side only are
// not regressions.
func TestDroppedAndNewBenchmarksSkipped(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, "BenchmarkDropped": 100}
	res := map[string]float64{"BenchmarkA": 100, "BenchmarkNew": 1e9}
	c, err := compare(base, res, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.rows) != 1 || c.rows[0].name != "BenchmarkA" || c.failed {
		t.Fatalf("rows = %+v failed=%v, want only BenchmarkA ok", c.rows, c.failed)
	}
	if _, err := compare(map[string]float64{"BenchmarkX": 1}, map[string]float64{"BenchmarkY": 1}, 0.25, 0); err == nil {
		t.Fatal("disjoint suites must error, not pass")
	}
}

// TestAllocsUniformGrowthGates pins the difference from the ns/op gate:
// allocs/op has no hardware factor, so a uniform 2x allocation growth is
// a regression everywhere, not a slower machine.
func TestAllocsUniformGrowthGates(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 1000, "BenchmarkB": 500}
	res := map[string]float64{"BenchmarkA": 2000, "BenchmarkB": 1000}
	c, err := compareAllocs(base, res, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if !c.failed {
		t.Fatal("uniform 2x allocs growth passed the gate")
	}
	for _, r := range c.rows {
		if !r.regressed {
			t.Errorf("%s not flagged", r.name)
		}
	}
}

// TestAllocsWithinHeadroom: pool-refill jitter under the threshold
// passes, and SweepParallel is gated like any other benchmark (its
// allocation count does not scale with cores).
func TestAllocsWithinHeadroom(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 1000, parName: 1000}
	res := map[string]float64{"BenchmarkA": 1200, parName: 1300}
	c, err := compareAllocs(base, res, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if c.failed {
		t.Fatalf("within-threshold allocs jitter flagged: %+v", c.rows)
	}
	res[parName] = 2000
	c, err = compareAllocs(base, res, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if !c.failed {
		t.Fatal("SweepParallel allocs regression slipped past the gate")
	}
}

// TestSweepSpeedupAssertion covers the same-run shard-executor gate.
func TestSweepSpeedupAssertion(t *testing.T) {
	res := map[string]float64{seqName: 1000, parName: 250}
	if s, present, failed := sweepSpeedup(res, 2.5); failed || !present || math.Abs(s-4) > 1e-9 {
		t.Errorf("4x speedup: s=%.2f present=%v failed=%v", s, present, failed)
	}
	if _, _, failed := sweepSpeedup(res, 5); !failed {
		t.Error("4x speedup passed a 5x requirement")
	}
	// Disabled check never fails, even with benchmarks missing.
	if _, _, failed := sweepSpeedup(map[string]float64{}, 0); failed {
		t.Error("disabled speedup check failed")
	}
	// Enabled check with the pair missing must fail loudly.
	if _, present, failed := sweepSpeedup(map[string]float64{seqName: 1000}, 2.5); !failed || present {
		t.Error("missing SweepParallel slipped past an enabled speedup gate")
	}
}

// TestMicroBenchmarksUngated: a benchmark with a baseline under the gate
// minimum is printed but neither sets the floor nor gates. Here the
// macro benchmarks are unchanged within noise and the microsecond
// benchmark ran faster by chance: with it in the floor, BenchmarkC
// would read as a 1.89x regression.
func TestMicroBenchmarksUngated(t *testing.T) {
	base := map[string]float64{"BenchmarkMicro": 31e3, "BenchmarkA": 3e9, "BenchmarkC": 80e6}
	res := map[string]float64{"BenchmarkMicro": 18e3, "BenchmarkA": 3e9, "BenchmarkC": 88e6}
	c, err := compare(base, res, 0.25, minGatedNs)
	if err != nil {
		t.Fatal(err)
	}
	if c.failed {
		t.Fatalf("micro-benchmark noise flagged a regression: %+v", c.rows)
	}
	if want := 1.0; math.Abs(c.floor-want) > 1e-9 {
		t.Errorf("floor = %.3f, want %.3f (BenchmarkA, the least-slowed gated one)", c.floor, want)
	}
	rows := names(c)
	if m := rows["BenchmarkMicro"]; !m.ungated || m.regressed {
		t.Errorf("micro benchmark must be ungated: %+v", m)
	}
	if !strings.Contains(c.render(), "BenchmarkMicro") {
		t.Error("ungated benchmark missing from the rendered table")
	}

	// A micro benchmark that regresses wildly still does not gate.
	res["BenchmarkMicro"] = 31e4
	if c, _ := compare(base, res, 0.25, minGatedNs); c.failed {
		t.Fatalf("ungated benchmark failed the gate: %+v", c.rows)
	}
	// Without the minimum, the old behavior: the micro ratio is the floor.
	res["BenchmarkMicro"] = 18e3
	if c, _ := compare(base, res, 0.25, 0); !c.failed {
		t.Fatal("with no gate minimum the micro benchmark should set the floor and flag BenchmarkC")
	}
}

// TestAllUngatedNeverFails: with every benchmark under the minimum the
// floor is 1 and nothing gates.
func TestAllUngatedNeverFails(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100}
	res := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 900}
	c, err := compare(base, res, 0.25, minGatedNs)
	if err != nil {
		t.Fatal(err)
	}
	if c.failed || c.floor != 1 {
		t.Fatalf("all-ungated suite: failed=%v floor=%.3f", c.failed, c.floor)
	}
}
