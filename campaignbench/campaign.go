package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"syscall"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/pt"
	"ptperf/internal/testbed"
	"ptperf/internal/tor"
	"ptperf/internal/web"
)

// Input sizes. BENCHMARK.json's workload reasons quote them; change
// both together, and re-record digests.json.
const (
	byteScale = 0.06

	// Worlds per pass and Tranco+CBL sites per world of each workload.
	curlWorlds, curlSites       = 12, 24
	browserWorlds, browserSites = 12, 4
	bulkWorlds                  = 18
	contentionWorlds            = 24
	// contentionWindow is the virtual time each guard-contention method
	// spends in back-to-back accesses.
	contentionWindow = 16 * time.Second
	// contentionObjectKB is the paper-scale size of the object every
	// guard-contention access fetches: the web catalog's median page.
	contentionObjectKB = 38

	// rotateEvery is the harness's circuit rotation (its
	// MaxCircuitDirtiness analog): a fresh circuit every 8 sites.
	rotateEvery = 8
	// drainTime is the virtual settle time after the last access, so
	// every queue has emptied when the conservation equations are
	// checked (the simulation-torture suite's drain).
	drainTime = 300 * time.Second
)

var fileSizesMB = []int{5, 10}

// workload is one campaign the benchmark can run, over a fixed set of
// worlds.
type workload struct {
	name string
	// worlds is how many worlds, each from its own seed derived from
	// the run's seed, one pass of the workload measures.
	worlds int
	// sites is the Tranco and the CBL site count of each world.
	sites int
	// fleet overrides the default volunteer relay draws.
	fleet testbed.Options
	run   func(c *campaign) error
}

var workloads = []workload{
	{"curl-web", curlWorlds, curlSites, testbed.Options{}, curlWeb},
	{"browser-web", browserWorlds, browserSites, testbed.Options{}, browserWeb},
	{"bulk-download", bulkWorlds, 1, testbed.Options{}, bulkDownload},
	{"guard-contention", contentionWorlds, 1, uniformFleet, guardContention},
}

// uniformFleet gives every volunteer relay the midpoints of the
// default bandwidth and utilization ranges. On guard-contention the
// measured circuit's pinned middle and exit then match in every world,
// so what varies between worlds is the contention at the shared guard,
// not the path behind it.
var uniformFleet = testbed.Options{
	RelayBandwidth:   [2]float64{10 << 20, 10 << 20},
	GuardUtilization: [2]float64{0.675, 0.675},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// catalogMethods is every access method in catalog order: vanilla Tor,
// then the twelve transports.
func catalogMethods() []string { return append([]string{"tor"}, pt.Names()...) }

// access is one measured access's simulated outcome and its span.
type access struct {
	Method   string        `json:"method"`
	Span     int           `json:"span"`
	Virtual  time.Duration `json:"virtual_ns"`
	Bytes    int64         `json:"bytes"`
	Complete bool          `json:"complete"`
}

// campaign is one world driven through one workload by the calling
// goroutine, which testbed.New makes the world's scheduler driver.
type campaign struct {
	tr       *tracer
	w        *testbed.World
	sites    []string
	accesses []access
	digest   hash.Hash
	recovery tor.RecoveryStats
	sched    tor.SchedStats
	problems []string
	// rig is guard-contention's shared-guard rig.
	rig *testbed.ContentionRig
}

// record appends one access's outcome to the campaign and its digest.
func (c *campaign) record(method string, span int, total, ttfb time.Duration, bytes int64, complete, failed bool) {
	fmt.Fprintf(c.digest, "%s %d %d %d %t %t\n", method, total, ttfb, bytes, complete, failed)
	c.accesses = append(c.accesses, access{method, span, total, bytes, complete})
}

func (c *campaign) nextAccess() int { return len(c.accesses) }

func (c *campaign) problemf(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// preheat builds a circuit inside a span. A failed build is part of the
// model (an unreliable transport); the next Dial builds again.
func (c *campaign) preheat(method string, setup bool, build func() error) {
	c.tr.call("tor.Preheat", method, setup, func() { _ = build() })
}

func (c *campaign) deployment(method string) (*testbed.Deployment, error) {
	var d *testbed.Deployment
	var err error
	c.tr.call("testbed.World.Deployment", method, true, func() { d, err = c.w.Deployment(method) })
	return d, err
}

// park closes the method's circuits once its accesses are done, so
// polling tunnels stop generating events for the rest of the campaign
// (as the harness does).
func (c *campaign) park(method string, d *testbed.Deployment) {
	c.tr.call("testbed.Deployment.FreshCircuit", method, false, d.FreshCircuit)
	c.recovery = c.recovery.Add(d.Recovery())
}

// webAccess runs one web workload: every method in order, with the
// harness's circuit rotation every rotateEvery sites.
func webAccess(c *campaign, methods []string, visit func(method string, d *testbed.Deployment, cl *fetch.Client, site string)) error {
	for _, m := range methods {
		ms := c.tr.begin("method", m, -1, false)
		d, err := c.deployment(m)
		if err != nil {
			return err
		}
		c.preheat(m, true, d.Preheat)
		cl := &fetch.Client{Net: c.w.Net, Dial: d.Dial, Timeout: fetch.DefaultTimeout}
		for si, site := range c.sites {
			if si > 0 && si%rotateEvery == 0 {
				c.tr.call("testbed.Deployment.FreshCircuit", m, false, d.FreshCircuit)
				c.preheat(m, false, d.Preheat)
			}
			visit(m, d, cl, site)
		}
		c.park(m, d)
		c.tr.end(ms)
	}
	return nil
}

func curlWeb(c *campaign) error {
	return webAccess(c, catalogMethods(), func(m string, _ *testbed.Deployment, cl *fetch.Client, site string) {
		a := c.tr.begin("fetch.Client.Get", m, c.nextAccess(), false)
		res := cl.Get(c.w.Origin.Addr(), site, false)
		c.tr.end(a)
		c.record(m, a, res.Total, res.TTFB, res.BytesGot, res.Complete(), res.Failed())
	})
}

func browserWeb(c *campaign) error {
	var methods []string
	for _, m := range catalogMethods() {
		if info, ok := pt.InfoFor(m); ok && !info.ParallelStreams {
			continue
		}
		methods = append(methods, m)
	}
	return webAccess(c, methods, func(m string, d *testbed.Deployment, cl *fetch.Client, site string) {
		a := c.tr.begin("fetch.Client.Browse", m, c.nextAccess(), false)
		pr := cl.Browse(c.w.Origin.Addr(), site, fetch.DefaultBrowserConns)
		c.tr.end(a)
		c.record(m, a, pr.PageLoadTime, pr.TTFB, pr.Bytes, pr.OK, pr.Bytes == 0)
		if !pr.OK {
			// A dead circuit is rebuilt for the next page, as selenium
			// campaigns do.
			c.tr.call("testbed.Deployment.FreshCircuit", m, false, d.FreshCircuit)
		}
	})
}

func bulkDownload(c *campaign) error {
	for _, m := range catalogMethods() {
		ms := c.tr.begin("method", m, -1, false)
		d, err := c.deployment(m)
		if err != nil {
			return err
		}
		c.preheat(m, true, d.Preheat)
		cl := &fetch.Client{Net: c.w.Net, Dial: d.Dial, Timeout: fetch.FileTimeout}
		for _, mb := range fileSizesMB {
			a := c.tr.begin("fetch.Client.DownloadFile", m, c.nextAccess(), false)
			res := cl.DownloadFile(c.w.Origin.Addr(), c.w.Bytes(mb<<20))
			c.tr.end(a)
			c.record(m, a, res.Total, res.TTFB, res.BytesGot, res.Complete(), res.Failed())
			if !res.Complete() {
				// A broken circuit must not poison the next download.
				c.tr.call("testbed.Deployment.FreshCircuit", m, false, d.FreshCircuit)
				c.preheat(m, false, d.Preheat)
			}
		}
		c.park(m, d)
		c.tr.end(ms)
	}
	return nil
}

func guardContention(c *campaign) error {
	var lv testbed.ContentionLevel
	for _, l := range testbed.ContentionLevels {
		if l.Name == "overload" {
			lv = l
		}
	}
	if lv.Competitors == 0 {
		return fmt.Errorf("testbed.ContentionLevels lacks the overload level")
	}
	var err error
	c.tr.call("testbed.World.NewContentionRig", "", true, func() { c.rig, err = c.w.NewContentionRig(lv) })
	if err != nil {
		return err
	}
	rig := c.rig
	clock := c.w.Net.Clock()
	c.tr.call("testbed.ContentionRig.Start", "", true, rig.Start)
	c.tr.call("netem.Clock.Sleep", "", true, func() { clock.Sleep(lv.RampTime()) })

	// Pin middle and exit, as the harness's contention cells do.
	middle, mok := c.w.Dir.Lookup("middle-0")
	exit, eok := c.w.Dir.Lookup("exit-0")
	if !mok || !eok {
		return fmt.Errorf("consensus lacks middle-0/exit-0")
	}
	var clients map[string]*tor.Client
	c.tr.call("testbed.FixedCircuitRig.Clients", "", true, func() { clients, err = rig.Clients(middle, exit) })
	if err != nil {
		return err
	}
	object := web.FilePath(c.w.Bytes(contentionObjectKB << 10))
	for _, m := range rig.Methods() {
		ms := c.tr.begin("method", m, -1, false)
		tc := clients[m]
		c.preheat(m, true, tc.Preheat)
		cl := &fetch.Client{Net: c.w.Net, Dial: tc.Dial, Timeout: fetch.DefaultTimeout}
		// The competitors keep the guard saturated, so host work tracks
		// virtual time: a fixed window of fixed-size objects keeps it from
		// swinging with each world's page sizes.
		for end := clock.Now() + contentionWindow; clock.Now() < end; {
			a := c.tr.begin("fetch.Client.Get", m, c.nextAccess(), false)
			res := cl.Get(c.w.Origin.Addr(), object, false)
			c.tr.end(a)
			c.record(m, a, res.Total, res.TTFB, res.BytesGot, res.Complete(), res.Failed())
		}
		c.recovery = c.recovery.Add(tc.Recovery())
		c.tr.call("tor.Client.Close", m, false, func() { _ = tc.Close() })
		c.tr.end(ms)
	}
	c.tr.call("testbed.ContentionRig.Stop", "", false, rig.Stop)
	// Stop kills the competitor circuits at their clients; the guard
	// still holds queued cells until the teardown reaches it, so only
	// the accounting identity holds here. The drain checks the rest.
	c.sched = rig.GuardSched()
	if st := c.sched; st.Queued != st.Flushed+st.Dropped+st.Pending {
		c.problemf("guard scheduler at stop: queued %d != flushed %d + dropped %d + pending %d", st.Queued, st.Flushed, st.Dropped, st.Pending)
	}
	return nil
}

// worldResult is what one campaign process reports to the parent: the
// world's spans and outcomes, from which the parent computes every
// metric.
type worldResult struct {
	Seed     int64             `json:"seed"`
	Digest   string            `json:"digest"`
	Spans    []span            `json:"spans"`
	Accesses []access          `json:"accesses"`
	Recovery tor.RecoveryStats `json:"recovery"`
	// Sched is the shared guard's scheduler counters on
	// guard-contention, else the sum over every relay of the world.
	Sched      tor.SchedStats `json:"sched"`
	AllocBytes uint64         `json:"alloc_bytes"`
	MaxRSSKB   int64          `json:"max_rss_kb"`
	Problems   []string       `json:"problems,omitempty"`
}

// runCampaign builds one world and drives it through the workload. The
// campaign span is spans[0].
func runCampaign(wl workload, seed int64, traced bool) (*worldResult, error) {
	c := &campaign{tr: newTracer(traced), digest: sha256.New()}
	mem0 := readMem()
	root := c.tr.begin("campaign", "", -1, false)
	var err error
	c.tr.call("testbed.New", "", true, func() {
		opts := wl.fleet
		opts.Seed, opts.ByteScale, opts.TrancoN, opts.CBLN = seed, byteScale, wl.sites, wl.sites
		c.w, err = testbed.New(opts)
		if err == nil {
			c.tr.net = c.w.Net
		}
	})
	if err != nil {
		return nil, fmt.Errorf("build world: %w", err)
	}
	for i := 0; i < wl.sites; i++ {
		c.sites = append(c.sites, c.w.Tranco.Sites[i].Path)
	}
	for i := 0; i < wl.sites; i++ {
		c.sites = append(c.sites, c.w.CBL.Sites[i].Path)
	}
	if err := wl.run(c); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	mem1 := readMem()
	c.tr.end(root)
	if len(c.accesses) == 0 {
		return nil, fmt.Errorf("%s: no accesses", wl.name)
	}
	if c.rig == nil {
		for _, r := range c.w.Relays() {
			st := r.SchedStats()
			c.sched.Passes += st.Passes
			c.sched.Flushed += st.Flushed
			c.sched.DelaySum += st.DelaySum
		}
	}

	// Let every queue empty, then check the conservation equations.
	c.w.Net.Clock().Sleep(drainTime)
	snap := c.w.Net.Acct().Snapshot()
	if err := snap.ConservationErr(); err != nil {
		c.problemf("byte conservation: %v", err)
	}
	if err := snap.CellConservationErr(); err != nil {
		c.problemf("cell conservation: %v", err)
	}
	if c.rig != nil {
		if st := c.rig.GuardSched(); st.Pending != 0 || st.Queued != st.Flushed+st.Dropped {
			c.problemf("guard scheduler drained: queued %d != flushed %d + dropped %d (pending %d)", st.Queued, st.Flushed, st.Dropped, st.Pending)
		}
	}
	res := &worldResult{
		Seed:       seed,
		Digest:     hex.EncodeToString(c.digest.Sum(nil))[:16],
		Spans:      c.tr.spans,
		Accesses:   c.accesses,
		Recovery:   c.recovery,
		Sched:      c.sched,
		AllocBytes: mem1.alloc - mem0.alloc,
		Problems:   c.problems,
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	res.MaxRSSKB = ru.Maxrss
	return res, nil
}
