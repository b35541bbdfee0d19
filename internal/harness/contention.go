package harness

import (
	"fmt"
	"strconv"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/stats"
	"ptperf/internal/testbed"
	"ptperf/internal/tor"
)

// This file declares "-exp contention": the guard-contention grid over
// the relay-overload scenario family. Every cell is built from the same
// seed, so the only difference between cells is the competitor load
// (and, for the extra cell, the scheduler policy). It crosses the
// shared-guard methods {tor, obfs4, webtunnel} with {competitor load},
// reporting download-time and TTFB boxes versus the uncontended
// baseline plus the guard's queueing-delay counters, and re-runs the
// heaviest level under the FIFO scheduler to show what EWMA priority
// buys.

// contentionSites bounds the per-level site sample, like the paper's
// five representative sites in the fixed-circuit experiments.
const contentionSites = 5

// contentionMethods share the guard: vanilla Tor and two set-1 bridges.
var contentionMethods = []string{"tor", "obfs4", "webtunnel"}

// contentionDelayCol is the mean-queue-delay column of a cell's
// counter row.
const contentionDelayCol = 5

func contentionGrid() *grid {
	g := &grid{
		prefix:  "contention",
		stream:  streamContention,
		methods: contentionMethods,
		knobs:   func(c Config) string { return fmt.Sprintf("repeats=%d", c.Repeats) },
		options: func(o *testbed.Options, lv gridLevel) {
			if lv.extra {
				o.SchedPolicy = tor.SchedFIFO
			}
		},
		measure: measureContention,
		intro:   "Guard contention: %d methods × %d load levels over one shared guard (same world seed per cell)",
		sep:     "@",
		boxes: [2]string{"Download time under guard contention (s; failures count as the timeout)",
			"Time to first byte under guard contention (s)"},
		cellTitle: "Shared-guard cell scheduler (queueing delay is what FCFS relays hid)",
		cellCols:  []string{"policy", "competitors", "cells-queued", "flushed", "dropped", "mean-queue-delay", "passes"},
		pairs:     "Paired t-tests, download time per load level vs idle (positive mean-diff = contention slower)",
		footer:    contentionFooter,
		note:      "Expected: the measured (bursty) circuits pay queueing delay under FIFO that EWMA priority removes.\n\n",
	}
	for i, lv := range testbed.ContentionLevels {
		g.levels = append(g.levels, gridLevel{key: strconv.Itoa(i), label: lv.Name, i: i})
	}
	top := g.levels[len(g.levels)-1]
	top.key, top.extra = top.key+":fifo", true
	g.levels = append(g.levels, top)
	return g
}

// measureContention runs one contention cell: the rig's competitors
// load the shared guard while each method fetches the first sites over
// an otherwise pinned circuit.
func measureContention(r *Runner, w *testbed.World, methods []string, lv gridLevel) (*gridCell, error) {
	level := testbed.ContentionLevels[lv.i]
	rig, err := w.NewContentionRig(level)
	if err != nil {
		return nil, err
	}
	rig.Start()
	w.Net.Clock().Sleep(level.RampTime())

	// Pin middle and exit so every cell measures the identical
	// circuit; only the guard's contention varies.
	middle, mok := w.Dir.Lookup("middle-0")
	exit, eok := w.Dir.Lookup("exit-0")
	if !mok || !eok {
		return nil, fmt.Errorf("harness: consensus lacks middle-0/exit-0")
	}
	clients, err := rig.Clients(middle, exit)
	if err != nil {
		return nil, err
	}
	sites := r.sites(w)
	if len(sites) > contentionSites {
		sites = sites[:contentionSites]
	}
	cell := &gridCell{Methods: make(map[string]*gridSamples, len(methods))}
	for _, method := range methods {
		cl := clients[method]
		if err := cl.Preheat(); err != nil {
			return nil, fmt.Errorf("%s preheat: %w", method, err)
		}
		c := &fetch.Client{Net: w.Net, Dial: cl.Dial, Timeout: pageTimeout}
		s := &gridSamples{}
		for _, site := range sites {
			for rep := 0; rep < r.cfg.Repeats; rep++ {
				res := c.Get(w.Origin.Addr(), site.path, false)
				if res.Err != nil || !res.Complete() {
					s.Times = append(s.Times, pageTimeout.Seconds())
					s.TTFBs = append(s.TTFBs, pageTimeout.Seconds())
					continue
				}
				s.Times = append(s.Times, seconds(res.Total))
				s.TTFBs = append(s.TTFBs, seconds(res.TTFB))
			}
		}
		cell.Methods[method] = s
		cl.Close()
	}
	// Stop before snapshotting: with the competitor circuits torn
	// down the guard's queues are drained, so the reported counters
	// satisfy queued == flushed + dropped.
	rig.Stop()
	st := rig.GuardSched()
	cell.Counters = counters(w.Opts.SchedPolicy, level.Competitors, st.Queued, st.Flushed, st.Dropped,
		fmt.Sprintf("%.1fms", float64(st.MeanDelay())/float64(time.Millisecond)), st.Passes)
	return cell, nil
}

// contentionFooter compares the top load level's EWMA cell with its
// FIFO re-run (the last two cells).
func contentionFooter(r *Runner, cells []*gridCell) {
	top, fifo := cells[len(cells)-2], cells[len(cells)-1]
	levels := testbed.ContentionLevels
	fmt.Fprintf(r.out, "EWMA vs FIFO at %q: mean guard queueing delay %s vs %s", levels[len(levels)-1].Name,
		top.Counters[contentionDelayCol], fifo.Counters[contentionDelayCol])
	for _, m := range contentionMethods {
		res, err := stats.PairedT(fifo.Methods[m].Times, top.Methods[m].Times)
		if err != nil {
			continue
		}
		fmt.Fprintf(r.out, "; %s fifo−ewma mean-diff %.2fs", m, res.MeanDiff)
	}
	fmt.Fprintln(r.out)
}
