package harness

import (
	"fmt"
	"sort"

	"ptperf/internal/censor"
	"ptperf/internal/fetch"
	"ptperf/internal/testbed"
)

// This file declares the censor-scenario grids: "scenario:<name>" runs
// one named interference scenario across the configured transports,
// and "sweep" crosses {transports} × {scenarios} with paired t-tests
// against the clean baseline. Every scenario world is built from the
// same seed, so the only difference between cells is the interference
// itself — which is what makes the paired comparisons meaningful.

// sweepScenarios orders the sweep: the clean baseline first, then the
// built-in narrative order, then any extra registered scenarios.
func sweepScenarios() []string {
	order := []string{"clean", "throttle-surge", "lossy-path", "bridge-block", "snowflake-surge"}
	seen := make(map[string]bool, len(order))
	for _, n := range order {
		seen[n] = true
	}
	var extra []string
	for _, n := range censor.Names() {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(order, extra...)
}

// scenarioGrid measures the configured transports under each named
// scenario, one report section per scenario.
func scenarioGrid(names ...string) *grid {
	g := &grid{
		prefix:  "scenario",
		stream:  streamScenario,
		options: func(o *testbed.Options, lv gridLevel) { o.Scenario = lv.key },
		measure: measureScenario,
		perCell: true,
		sep:     "@",
		boxes: [2]string{fmt.Sprintf("Website access time under scenario %%q (s; failures count as the %gs timeout)",
			pageTimeout.Seconds())},
		methodTitle: "Access reliability under %q",
		methodCols:  []string{"ok", "failed", "ok%"},
		cellTitle:   "censor:",
		cellCols:    []string{"blocked-dials", "flows-cut", "resets", "loss-events", "throttled-segments"},
	}
	for i, n := range names {
		g.levels = append(g.levels, gridLevel{key: n, label: n, i: i})
	}
	return g
}

// sweepGrid is every scenario, paired against the clean baseline.
func sweepGrid() *grid {
	g := scenarioGrid(sweepScenarios()...)
	g.intro = "Scenario sweep: %d transports × %d scenarios (same world seed per scenario)"
	g.pairs = "Paired t-tests, access time per scenario vs clean (positive mean-diff = scenario slower)"
	return g
}

// measureScenario measures website access for every method under the
// world's scenario: one Get per site, failures recorded as the page
// timeout, plus the censor's interference counters.
func measureScenario(r *Runner, w *testbed.World, methods []string, _ gridLevel) (*gridCell, error) {
	sites := r.sites(w)
	results, err := forEachMethod(r, w, methods, methodsInFlight, func(method string) (*gridSamples, error) {
		d, err := w.Deployment(method)
		if err != nil {
			return nil, err
		}
		// A failed preheat is not fatal: under endpoint blocking the
		// accesses themselves record the failure.
		_ = d.Preheat()
		c := &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: pageTimeout}
		s := &gridSamples{}
		failed := 0
		for _, site := range sites {
			got := c.Get(w.Origin.Addr(), site.path, false)
			if got.Err != nil || !got.Complete() {
				s.Times = append(s.Times, pageTimeout.Seconds())
				failed++
				continue
			}
			s.Times = append(s.Times, seconds(got.Total))
		}
		s.Counters = counters(len(sites)-failed, failed, percent(len(sites)-failed, len(sites)))
		// Park the transport's tunnels (see measureAccess).
		d.FreshCircuit()
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	var st censor.Stats
	if w.Censor != nil {
		st = w.Censor.Stats()
	}
	return &gridCell{Methods: results, Counters: counters(st.BlockedDials, st.FlowsCut, st.Resets, st.LossEvents, st.ThrottledSegments)}, nil
}
