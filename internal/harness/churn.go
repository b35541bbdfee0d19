package harness

import (
	"fmt"
	"strconv"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/testbed"
	"ptperf/internal/tor"
)

// This file declares "-exp churn": the churn-resilience grid over the
// relay-failure scenario family. Every cell is built from the same
// seed, so topology, catalogs and relay draws are identical across
// columns and the only difference is the fault plan (none at the
// baseline). It crosses the methods {tor, obfs4,
// webtunnel, snowflake} with {none, slow, fast} churn, every method
// running resumable bulk downloads concurrently on the world's clock
// while relays crash, links flap and descriptors churn underneath them,
// and reports download-time and TTFB distributions, success rates, and
// the per-method recovery-cost breakdown with paired t-tests against
// the fault-free baseline.

// churnMethods are the measured access methods: vanilla Tor plus one
// transport from each integration set that survives a mid-path failure
// differently (set-1 bridges keep their guard; snowflake's set-2 proxy
// re-splices).
var churnMethods = []string{"tor", "obfs4", "webtunnel", "snowflake"}

const (
	// churnFileMB is the per-download file size (paper-scale MB): big
	// enough that a download spans several fast-churn periods, so relay
	// crashes land mid-transfer instead of between attempts.
	churnFileMB = 50
	// churnAttempts is the number of resumable downloads per method.
	churnAttempts = 8
	// churnMaxResumes bounds extra transfer legs per download.
	churnMaxResumes = 8
	// churnThink is the idle gap between a method's downloads.
	churnThink = 2 * time.Second
	// churnFileTimeout bounds one resumed download end to end.
	churnFileTimeout = 600 * time.Second
	// churnHorizon bounds the fault plan; events past the campaign's
	// actual end stay parked on the clock and never fire.
	churnHorizon = 20 * time.Minute
)

// churnRetry is the recovery policy every Tor client of a churn world
// runs: more build attempts with exponential, jittered backoff (so a
// retry storm does not burn its whole budget inside one 10 s outage)
// and a bigger stream re-attach budget.
var churnRetry = tor.RetryPolicy{
	MaxBuildRetries:  4,
	MaxStreamRetries: 3,
	BackoffBase:      2 * time.Second,
}

func churnGrid() *grid {
	g := &grid{
		prefix:  "churn",
		stream:  streamChurn,
		methods: churnMethods,
		knobs: func(Config) string {
			return fmt.Sprintf("attempts=%d fileMB=%d", churnAttempts, churnFileMB)
		},
		options: func(o *testbed.Options, lv gridLevel) {
			o.Retry = churnRetry
			if plan := testbed.ChurnPlanFor(testbed.ChurnLevels[lv.i], *o, churnHorizon); !plan.Empty() {
				o.FaultSpec = &plan
			}
		},
		measure: measureChurn,
		intro: fmt.Sprintf("Relay churn: %%d methods × %%d failure rates, resumable %d MB downloads over a failing fleet (same world seed per cell)",
			churnFileMB),
		sep: "@",
		boxes: [2]string{"Download time under relay churn (s; failures count as the timeout)",
			"Time to first byte under relay churn (s)"},
		methodTitle: "Recovery cost per method (client-side circuit rebuilds and stream re-attaches)",
		methodCols: []string{"attempts", "ok", "success", "resumes",
			"rebuilds", "build-timeouts", "stream-fails", "re-attaches", "abandoned", "probations"},
		cellTitle: "Fault injector transitions per level",
		cellCols:  []string{"crashes", "restarts", "flaps-down", "flaps-up", "withdrawn", "rejoined", "skipped"},
		pairs:     "Paired t-tests, download time per churn level vs fault-free (positive mean-diff = churn slower)",
		note:      "Expected: downloads survive churn through resume legs and circuit rebuilds — success stays high while recovery counters, not failure rates, absorb the damage.\n\n",
	}
	for i, lv := range testbed.ChurnLevels {
		g.add(gridLevel{key: strconv.Itoa(i), label: lv.Name, i: i})
	}
	return g
}

// measureChurn runs every method's resumable downloads concurrently on
// the world's clock while the fault plan plays out underneath them.
func measureChurn(r *Runner, w *testbed.World, methods []string, _ gridLevel) (*gridCell, error) {
	size := w.Bytes(churnFileMB << 20)
	results, err := forEachMethod(r, w, methods, methodsInFlight, func(name string) (*gridSamples, error) {
		dep, err := w.Deployment(name)
		if err != nil {
			return nil, err
		}
		if err := dep.Preheat(); err != nil {
			return nil, fmt.Errorf("preheat: %w", err)
		}
		c := &fetch.Client{Net: w.Net, Dial: dep.Dial, Timeout: churnFileTimeout}
		s := &gridSamples{}
		completed, resumes := 0, 0
		for i := 0; i < churnAttempts; i++ {
			if i > 0 {
				w.Net.Clock().Sleep(churnThink)
				// Each attempt measures a cold path, like the bulk
				// campaign — and spreads fault exposure over circuits.
				dep.FreshCircuit()
			}
			res := c.DownloadFileResumed(w.Origin.Addr(), size, churnMaxResumes)
			resumes += res.Resumes
			if res.Complete() {
				completed++
				s.Times = append(s.Times, seconds(res.Total))
				s.TTFBs = append(s.TTFBs, seconds(res.TTFB))
			} else {
				s.Times = append(s.Times, churnFileTimeout.Seconds())
				s.TTFBs = append(s.TTFBs, churnFileTimeout.Seconds())
			}
		}
		rec := dep.Recovery()
		s.Counters = counters(churnAttempts, completed, percent(completed, churnAttempts), resumes,
			rec.Rebuilds, rec.BuildTimeouts, rec.StreamFailures, rec.ReAttaches, rec.Abandoned, rec.GuardProbations)
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	st := w.FaultStats()
	return &gridCell{Methods: results, Counters: counters(st.Crashes, st.Restarts, st.FlapsDown, st.FlapsUp,
		st.Withdrawn, st.Rejoined, st.Skipped)}, nil
}
