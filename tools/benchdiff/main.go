// Command benchdiff compares a CI benchmark run (BENCH_results.json)
// against the committed BENCH_baseline.json and fails on ns/op
// regressions.
//
// Both files hold one {"BenchmarkName": ns_per_op} object, as rendered
// by the CI workflow's awk step. Because baseline and result often come
// from different hardware, raw ratios are meaningless on their own:
// benchdiff computes each benchmark's result/baseline ratio, takes the
// MINIMUM ratio as the machine-speed factor (the least-slowed benchmark
// bounds how much of the slowdown is hardware), and flags benchmarks
// whose ratio exceeds that floor by more than -threshold. Unlike a
// median, the minimum still catches a regression that hits most of the
// suite at once — only a perfectly uniform slowdown across every
// benchmark is indistinguishable from slower hardware, which no
// relative scheme can separate without pinned runners. The flip side:
// a genuine single-benchmark improvement lowers the floor and flags
// the rest, so a PR that speeds a benchmark up must regenerate
// BENCH_baseline.json in the same change (false red, self-correcting —
// preferred over the false green a median gives broad slowdowns).
//
// Benchmarks whose baseline is under 10 ms/op are printed but excluded
// from both the floor and the gate: a microsecond-scale benchmark's
// ratio is mostly noise, and as the minimum it would decide the verdict
// for the whole suite.
//
// BenchmarkSweepParallel is excluded from both the floor and the gate:
// its ns/op scales with the runner's core count by design, so its
// ratio says nothing about code regressions. Its regression detection
// is the speedup assertion below, computed entirely within one run.
//
// With -min-sweep-speedup N it additionally asserts the shard
// executor's win: BenchmarkScenarioSweep (sequential, -jobs 1) must be
// at least N times the ns/op of BenchmarkSweepParallel (all cores) in
// the results file. CI passes this only on runners with enough cores.
//
// With -allocs-baseline/-allocs-results (from a -benchmem run) it also
// gates allocs/op. That gate is a direct per-benchmark ratio against
// 1 + -allocs-threshold, with no minimum-ratio normalization:
// allocation counts do not depend on runner speed, so the hardware
// factor that motivates the ns/op floor does not exist, and a uniform
// allocs blow-up — invisible to a relative scheme — is exactly what the
// gate must catch. The default 35% headroom absorbs sync.Pool refills
// after GC, the one nondeterministic allocs source in the suite.
//
// With -append-history FILE it also appends the results as one
// {"label": ..., "ns": {...}} line to the JSONL perf-history file —
// the format internal/obs.ParseBenchHistory reads to render the HTML
// report's perf-trajectory section. -history-label names the entry
// (CI passes the commit SHA). Passing -baseline "" skips the gate and
// only appends.
//
// Usage:
//
//	go run ./tools/benchdiff -baseline BENCH_baseline.json -results BENCH_results.json -threshold 0.25
//	go run ./tools/benchdiff -baseline "" -results BENCH_results.json -append-history BENCH_history.jsonl -history-label $SHA
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "committed baseline {name: ns/op}")
		resultsPath  = flag.String("results", "BENCH_results.json", "fresh results {name: ns/op}")
		threshold    = flag.Float64("threshold", 0.25, "max allowed slowdown relative to the suite's minimum-ratio floor")
		minSpeedup   = flag.Float64("min-sweep-speedup", 0, "if > 0, require ScenarioSweep/SweepParallel >= this in results")
		historyPath  = flag.String("append-history", "", "append the results as one {label, ns} line to this JSONL perf-history file")
		historyLabel = flag.String("history-label", "", "label for the appended history entry (e.g. the commit SHA)")

		allocsBaseline  = flag.String("allocs-baseline", "", "committed allocs/op baseline {name: allocs/op}; empty disables the allocs gate")
		allocsResults   = flag.String("allocs-results", "", "fresh allocs/op results (from -benchmem), required with -allocs-baseline")
		allocsThreshold = flag.Float64("allocs-threshold", 0.35, "max allowed allocs/op growth per benchmark (direct ratio, no hardware normalization)")
	)
	flag.Parse()

	res, err := readNsOp(*resultsPath)
	if err != nil {
		fatalf("%v", err)
	}
	if *historyPath != "" {
		if err := appendHistory(*historyPath, *historyLabel, res); err != nil {
			fatalf("append history: %v", err)
		}
		fmt.Printf("appended %d benchmarks to %s\n", len(res), *historyPath)
	}
	if *baselinePath == "" {
		// History-only invocation: nothing to gate against.
		return
	}
	base, err := readNsOp(*baselinePath)
	if err != nil {
		fatalf("%v", err)
	}

	cmp, err := compare(base, res, *threshold, minGatedNs)
	if err != nil {
		fatalf("%s vs %s: %v", *baselinePath, *resultsPath, err)
	}
	fmt.Print(cmp.render())
	failed := cmp.failed

	if *allocsBaseline != "" {
		if *allocsResults == "" {
			fatalf("-allocs-baseline set without -allocs-results")
		}
		abase, err := readNsOp(*allocsBaseline)
		if err != nil {
			fatalf("%v", err)
		}
		ares, err := readNsOp(*allocsResults)
		if err != nil {
			fatalf("%v", err)
		}
		acmp, err := compareAllocs(abase, ares, *allocsThreshold)
		if err != nil {
			fatalf("%s vs %s: %v", *allocsBaseline, *allocsResults, err)
		}
		fmt.Print("\n" + acmp.render())
		failed = failed || acmp.failed
	}

	speedup, present, speedupFailed := sweepSpeedup(res, *minSpeedup)
	if present {
		fmt.Printf("\nsweep parallel speedup (%s / %s): %.2fx\n", seqName, parName, speedup)
	}
	if speedupFailed {
		if !present {
			fmt.Printf("FAIL: -min-sweep-speedup set but %s/%s missing from results\n", seqName, parName)
		} else {
			fmt.Printf("FAIL: sweep speedup %.2fx below required %.2fx\n", speedup, *minSpeedup)
		}
		failed = true
	}

	if failed {
		os.Exit(1)
	}
	fmt.Printf("\nno regressions beyond %.0f%% of the suite's minimum-ratio floor\n", *threshold*100)
}

func readNsOp(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
