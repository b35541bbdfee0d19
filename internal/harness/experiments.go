package harness

import (
	"fmt"

	"ptperf/internal/censor"
	"ptperf/internal/fetch"
	"ptperf/internal/geo"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
	"ptperf/internal/stats"
	"ptperf/internal/testbed"
	"ptperf/internal/tor"
)

// The experiments that build their own worlds are split in two: a
// *Task method submits the world task (build world, measure, return
// values) on the shard executor, and the run* method joins the future
// and renders the report. Prefetching submits every task before any
// render, so "-exp all" keeps all -jobs cores busy while reports still
// come out strictly in paper order. The {methods} × {axis} experiments
// (medium, fig7) are grid entries instead (grid.go).

// boxRows builds the standard per-method box table from a dataset.
func boxRows(data map[string]*accessData, pick func(*accessData) []float64, order []string) []boxRow {
	var rows []boxRow
	for _, name := range order {
		if d, ok := data[name]; ok {
			rows = append(rows, boxRow{name, stats.Summarize(pick(d))})
		}
	}
	return rows
}

func times(d *accessData) []float64   { return d.Times }
func ttfbs(d *accessData) []float64   { return d.TTFBs }
func speedIx(d *accessData) []float64 { return d.SpeedIndexes }

// runTable1 prints the campaign inventory in the shape of Table 1.
func (r *Runner) runTable1() error {
	c := r.cfg
	sites := 2 * c.Sites
	t := newTable("measurement type", "measurements", "target")
	methods := len(c.Transports)
	// The selenium rows count the browser-capable subset, not
	// methods-1: that shortcut assumed camoufler is always in the
	// configured set.
	selenium := len(r.seleniumMethods())
	t.add("Website Download (curl)", fmt.Sprintf("%d", sites*c.Repeats*methods), fmt.Sprintf("Tranco top-%d & CBL-%d", c.Sites, c.Sites))
	t.add("Website Download (selenium)", fmt.Sprintf("%d", sites*c.Repeats*selenium), fmt.Sprintf("Tranco top-%d & CBL-%d", c.Sites, c.Sites))
	t.add("File Downloads (curl)", fmt.Sprintf("%d", len(c.FileSizesMB)*c.FileAttempts*methods), fmt.Sprintf("%v MB", c.FileSizesMB))
	t.add("Speed Index", fmt.Sprintf("%d", sites*c.Repeats*selenium), fmt.Sprintf("Tranco top-%d", c.Sites))
	t.add("PT Overhead", fmt.Sprintf("%d", c.Sites*len(testbed.OverheadPTs)), fmt.Sprintf("Tranco top-%d", c.Sites))
	t.add("Location Variation", fmt.Sprintf("%d", 3*3*c.Sites*c.Repeats), "Tranco & CBL")
	t.write(r.out)
	return nil
}

// runTable2 prints the appendix's 28-candidate comparison.
func (r *Runner) runTable2() error {
	t := newTable("name", "status", "code", "functional", "integratable", "evaluated", "technology", "challenge")
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, c := range pt.Candidates {
		t.add(c.Name, c.Status.String(), yn(c.CodeAvailable), yn(c.Functional),
			yn(c.Integratable), yn(c.Evaluated), c.Technology, c.Challenge)
	}
	t.write(r.out)
	fmt.Fprintf(r.out, "\n%d of %d candidates were functional, integratable and evaluated.\n",
		pt.EvaluatedCount(), len(pt.Candidates))
	return nil
}

// measureSites is the medium and location measure: plain curl access
// to the first Sites sites, per method.
func measureSites(r *Runner, w *testbed.World, methods []string, _ gridLevel) (*gridCell, error) {
	sites := r.sites(w)
	if len(sites) > r.cfg.Sites {
		sites = sites[:r.cfg.Sites]
	}
	results, err := forEachMethod(r, w, methods, methodsInFlight, func(name string) (*gridSamples, error) {
		d, err := w.Deployment(name)
		if err != nil {
			return nil, err
		}
		if err := d.Preheat(); err != nil {
			return nil, err
		}
		c := &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: pageTimeout}
		s := &gridSamples{}
		for _, site := range sites {
			res := c.Get(w.Origin.Addr(), site.path, false)
			s.Times = append(s.Times, seconds(res.Total))
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return &gridCell{Methods: results}, nil
}

// mediumGrid reproduces §4.7: the same website-access measurement over
// a wired and a wireless (campus WiFi) client in Toronto, expecting no
// change in the between-transport trend.
func mediumGrid() *grid {
	g := &grid{
		prefix:      "medium",
		stream:      streamMedium,
		seedByLevel: true,
		methods:     []string{"tor", "obfs4", "meek", "dnstt", "cloak"},
		options: func(o *testbed.Options, lv gridLevel) {
			o.Medium = mediumKinds[lv.i]
			o.ClientLocation = geo.Toronto
		},
		measure: measureSites,
		sep:     "/",
		boxes:   [2]string{"Website access time by access medium (s)"},
		note:    "Expected: the between-transport ordering is unchanged by the medium (§4.7).\n",
	}
	for i, m := range mediumKinds {
		g.levels = append(g.levels, gridLevel{key: m.String(), label: m.String(), i: i})
	}
	return g
}

// mediumKinds are the §4.7 access media.
var mediumKinds = []geo.Medium{geo.Wired, geo.Wireless}

// runFig2a prints the curl website-access box plots.
func (r *Runner) runFig2a() error {
	data, err := r.curlData()
	if err != nil {
		return err
	}
	r.writeBoxes("Website access time via curl (seconds, per-site means over Tranco+CBL)",
		boxRows(data, times, orderedMethods(r.cfg.Transports)))
	return nil
}

// runFig2b prints the selenium page-load box plots.
func (r *Runner) runFig2b() error {
	data, err := r.seleniumData()
	if err != nil {
		return err
	}
	r.writeBoxes("Website access time via selenium (seconds; camoufler unsupported)",
		boxRows(data, times, orderedMethods(r.cfg.Transports)))
	// The headline §4.2.1 comparison: PTs whose bridge is the guard can
	// beat vanilla Tor.
	if tor, ok := data["tor"]; ok {
		for _, name := range []string{"obfs4", "webtunnel", "conjure"} {
			if d, ok := data[name]; ok {
				if res, err := stats.PairedT(tor.Times, d.Times); err == nil {
					fmt.Fprintf(r.out, "paired t (tor−%s): t=%.2f P=%s CI=[%.2f, %.2f] mean-diff=%.2f\n",
						name, res.T, pvalue(res.P), res.CILower, res.CIUpper, res.MeanDiff)
				}
			}
		}
		fmt.Fprintln(r.out)
	}
	return nil
}

// fixedCircuitSamples measures the rig's three methods over pinned
// circuits; aligned by (iteration, site).
func (r *Runner) fixedCircuitSamples(w *testbed.World, rig *testbed.FixedCircuitRig, iters int, pinPair bool) (map[string][]float64, error) {
	sites := r.sites(w)
	if len(sites) > 5 {
		sites = sites[:5] // the paper samples five representative sites
	}
	out := map[string][]float64{}
	for it := 0; it < iters; it++ {
		var m, e *tor.Descriptor
		if pinPair {
			m, e = rig.PickPair(it)
		}
		clients, err := rig.Clients(m, e)
		if err != nil {
			return nil, err
		}
		for _, method := range rig.Methods() {
			cl := clients[method]
			if err := cl.Preheat(); err != nil {
				return nil, fmt.Errorf("%s preheat: %w", method, err)
			}
			c := &fetch.Client{Net: w.Net, Dial: cl.Dial, Timeout: pageTimeout}
			for _, site := range sites {
				res := c.Get(w.Origin.Addr(), site.path, false)
				out[method] = append(out[method], seconds(res.Total))
			}
			cl.Close()
		}
	}
	return out, nil
}

// fixedCircuitData is the result of the fig3/fig4 world tasks.
type fixedCircuitData struct {
	Methods []string
	Samples map[string][]float64
}

// fixedCircuitTask submits a fixed-circuit rig world.
func (r *Runner) fixedCircuitTask(key string, stream int64, iters int, pinPair bool) *sim.Future[any] {
	spec := r.cellSpec(fmt.Sprintf("iters=%d pin=%v", iters, pinPair))
	return r.worldTask(key, r.worldOptions(stream), spec,
		jsonValue[*fixedCircuitData](),
		func(w *testbed.World) (any, error) {
			rig, err := w.NewFixedCircuitRig()
			if err != nil {
				return nil, err
			}
			samples, err := r.fixedCircuitSamples(w, rig, iters, pinPair)
			if err != nil {
				return nil, err
			}
			return &fixedCircuitData{Methods: rig.Methods(), Samples: samples}, nil
		})
}

func (r *Runner) fig3Task() *sim.Future[any] {
	iters := r.cfg.Repeats * 3
	if iters < 4 {
		iters = 4
	}
	return r.fixedCircuitTask("fig3", streamFig3, iters, true)
}

// runFig3 prints the fixed-circuit boxes (3a) and the ECDF of per-site
// absolute differences (3b).
func (r *Runner) runFig3() error {
	v, err := r.fig3Task().Wait()
	if err != nil {
		return err
	}
	fc := v.(*fixedCircuitData)
	samples := fc.Samples
	var rows []boxRow
	for _, m := range fc.Methods {
		rows = append(rows, boxRow{m, stats.Summarize(samples[m])})
	}
	r.writeBoxes("Fixed circuit (same guard/middle/exit) website access time (s)", rows)

	for _, m := range []string{"obfs4", "webtunnel"} {
		res, err := stats.PairedT(samples[m], samples["tor"])
		if err == nil {
			fmt.Fprintf(r.out, "paired t (%s−tor): t=%.2f P=%s CI=[%.2f, %.2f]\n", m, res.T, pvalue(res.P), res.CILower, res.CIUpper)
		}
	}
	diffs := map[string][]float64{
		"obfs4-vs-tor":     stats.AbsDiffs(samples["obfs4"], samples["tor"]),
		"webtunnel-vs-tor": stats.AbsDiffs(samples["webtunnel"], samples["tor"]),
	}
	r.writeECDF("\nECDF of |PT − Tor| per access (s)", diffs, []string{"obfs4-vs-tor", "webtunnel-vs-tor"})
	return nil
}

func (r *Runner) fig4Task() *sim.Future[any] {
	iters := r.cfg.Repeats * 2
	if iters < 3 {
		iters = 3
	}
	return r.fixedCircuitTask("fig4", streamFig4, iters, false)
}

// runFig4 prints the fixed-guard / variable middle+exit comparison.
func (r *Runner) runFig4() error {
	v, err := r.fig4Task().Wait()
	if err != nil {
		return err
	}
	samples := v.(*fixedCircuitData).Samples
	var rows []boxRow
	for _, m := range []string{"tor", "obfs4"} {
		rows = append(rows, boxRow{m, stats.Summarize(samples[m])})
	}
	r.writeBoxes("Fixed guard, Tor-selected middle/exit: website access time (s)", rows)
	return nil
}

// runFig5 prints mean download time per file size, excluding methods
// that completed a size fewer than two times (as the paper does).
func (r *Runner) runFig5() error {
	data, err := r.filesData()
	if err != nil {
		return err
	}
	head := []string{"method"}
	for _, mb := range r.cfg.FileSizesMB {
		head = append(head, fmt.Sprintf("%dMB", mb))
	}
	t := newTable(head...)
	for _, name := range orderedMethods(r.cfg.Transports) {
		fd, ok := data[name]
		if !ok {
			continue
		}
		row := []string{name}
		usable := false
		for _, mb := range r.cfg.FileSizesMB {
			mean, n := fd.meanTime(mb)
			if n >= 1 {
				row = append(row, fmt.Sprintf("%.1f", mean))
				if n >= 2 || r.cfg.FileAttempts < 2 {
					usable = true
				}
			} else {
				row = append(row, "-")
			}
		}
		if !usable {
			row = append(row[:1], "excluded (unreliable, see fig8)")
			t.add(row...)
			continue
		}
		t.add(row...)
	}
	fmt.Fprintln(r.out, "Mean complete-download time per file size (seconds)")
	t.write(r.out)
	fmt.Fprintln(r.out)
	return nil
}

// runFig6 prints the TTFB ECDF.
func (r *Runner) runFig6() error {
	data, err := r.curlData()
	if err != nil {
		return err
	}
	series := map[string][]float64{}
	//simlint:allow maprange -- map-to-map copy under the same keys; per-key writes commute, and writeECDF orders the series by cfg.Transports.
	for name, d := range data {
		series[name] = d.TTFBs
	}
	r.writeECDF("Time to first byte, ECDF quantiles (s)", series, orderedMethods(r.cfg.Transports))
	return nil
}

// fig7Grid measures meek/obfs4/snowflake from the paper's three client
// cities (§4.5), one independent world per city.
func fig7Grid() *grid {
	g := &grid{
		prefix:      "fig7",
		stream:      streamFig7,
		seedByLevel: true,
		methods:     []string{"obfs4", "meek", "snowflake"},
		options:     func(o *testbed.Options, lv gridLevel) { o.ClientLocation = fig7Locations[lv.i] },
		measure:     measureSites,
		sep:         "@",
		boxes:       [2]string{"Website access time by client location (s)"},
	}
	for i, loc := range fig7Locations {
		g.levels = append(g.levels, gridLevel{key: loc.Short(), label: loc.Short(), i: i})
	}
	return g
}

// fig7Locations are the paper's three client cities.
var fig7Locations = []geo.Location{geo.Bangalore, geo.London, geo.Toronto}

// runFig8 prints reliability: the complete/partial/failed split (8a)
// and the downloaded-fraction ECDF for the three unreliable PTs (8b).
func (r *Runner) runFig8() error {
	data, err := r.filesData()
	if err != nil {
		return err
	}
	t := newTable("method", "complete", "partial", "failed", "complete%")
	for _, name := range orderedMethods(r.cfg.Transports) {
		fd, ok := data[name]
		if !ok {
			continue
		}
		c, p, f := fd.counts()
		total := c + p + f
		if total == 0 {
			continue
		}
		t.add(name, fmt.Sprintf("%d", c), fmt.Sprintf("%d", p), fmt.Sprintf("%d", f),
			fmt.Sprintf("%.0f%%", 100*float64(c)/float64(total)))
	}
	fmt.Fprintln(r.out, "File-download reliability per method")
	t.write(r.out)
	fmt.Fprintln(r.out)

	series := map[string][]float64{}
	for _, name := range []string{"meek", "dnstt", "snowflake"} {
		if fd, ok := data[name]; ok {
			series[name] = fd.fractions()
		}
	}
	r.writeECDF("Downloaded fraction per attempt, ECDF quantiles", series, []string{"meek", "dnstt", "snowflake"})
	return nil
}

// fig9Task submits the pinned-circuit overhead world: per-transport
// time difference over an identical circuit.
func (r *Runner) fig9Task() *sim.Future[any] {
	spec := r.cellSpec(fmt.Sprintf("sites=%d", r.cfg.Sites))
	return r.worldTask("fig9", r.worldOptions(streamFig9), spec,
		jsonValue[map[string][]float64](),
		func(w *testbed.World) (any, error) {
			sites := r.sites(w)
			if len(sites) > r.cfg.Sites {
				sites = sites[:r.cfg.Sites]
			}
			return forEachMethod(r, w, testbed.OverheadPTs, methodsInFlight, func(name string) ([]float64, error) {
				rig, err := w.NewOverheadRig(name, int64(len(name))*13)
				if err != nil {
					return nil, err
				}
				var diffs []float64
				for _, site := range sites {
					torC := &fetch.Client{Net: w.Net, Dial: rig.TorDial, Timeout: pageTimeout}
					ptC := &fetch.Client{Net: w.Net, Dial: rig.PTDial, Timeout: pageTimeout}
					tTor := torC.Get(w.Origin.Addr(), site.path, false)
					tPT := ptC.Get(w.Origin.Addr(), site.path, false)
					diffs = append(diffs, seconds(tPT.Total)-seconds(tTor.Total))
				}
				return diffs, nil
			})
		})
}

// runFig9 prints per-transport overhead over an identical pinned
// circuit: positive means the PT added time over vanilla Tor.
func (r *Runner) runFig9() error {
	v, err := r.fig9Task().Wait()
	if err != nil {
		return err
	}
	samples := v.(map[string][]float64)
	var rows []boxRow
	for _, name := range testbed.OverheadPTs {
		rows = append(rows, boxRow{name, stats.Summarize(samples[name])})
	}
	r.writeBoxes("PT − vanilla Tor time difference on an identical circuit (s)", rows)
	return nil
}

// snowflakeAccess measures snowflake website access in the current load
// state of its own world.
func (r *Runner) snowflakeAccess(w *testbed.World, nSites int) ([]float64, error) {
	d, err := w.Deployment("snowflake")
	if err != nil {
		return nil, err
	}
	d.FreshCircuit()
	// Under heavy churn a build can land on a dying volunteer; retry a
	// few times like a real client would.
	for attempt := 0; attempt < 5; attempt++ {
		if err = d.Preheat(); err == nil {
			break
		}
		d.FreshCircuit()
	}
	if err != nil {
		return nil, err
	}
	c := &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: pageTimeout}
	sites := r.sites(w)
	if len(sites) > nSites {
		sites = sites[:nSites]
	}
	var xs []float64
	for _, site := range sites {
		res := c.Get(w.Origin.Addr(), site.path, false)
		xs = append(xs, seconds(res.Total))
	}
	return xs, nil
}

// surgePhases is the §5.3 snowflake load timeline, owned by the censor
// scenario registry (the snowflake-surge scenario plays the same phases
// on the virtual clock; figures 10 and 12 step the same table).
var surgePhases = censor.SurgePhases

// manualLoadOptions is worldOptions for the figures that step load
// phases by hand (10 and 12): a scenario that carries its own phase
// timeline is dropped there, because the armed timers would override
// the manual SetLoad stepping mid-measurement.
func (r *Runner) manualLoadOptions(stream int64) testbed.Options {
	opts := r.worldOptions(stream)
	if opts.Scenario != "" {
		if sc, err := censor.Lookup(opts.Scenario); err == nil && len(sc.Phases) > 0 {
			opts.Scenario = ""
		}
	}
	return opts
}

// surgeAccess is the fig10 world-task result.
type surgeAccess struct {
	Pre, Post []float64
}

// fig10Task submits the §5.3 surge world: snowflake access before and
// after the September load step.
func (r *Runner) fig10Task() *sim.Future[any] {
	spec := r.cellSpec(fmt.Sprintf("sites=%d", r.cfg.Sites))
	return r.worldTask("fig10", r.manualLoadOptions(streamFig10), spec,
		jsonValue[*surgeAccess](),
		func(w *testbed.World) (any, error) {
			d, err := w.Deployment("snowflake")
			if err != nil {
				return nil, err
			}
			d.Snowflake().SetLoad(surgePhases[0].Util, surgePhases[0].Lifetime)
			pre, err := r.snowflakeAccess(w, r.cfg.Sites)
			if err != nil {
				return nil, err
			}
			d.Snowflake().SetLoad(surgePhases[1].Util, surgePhases[1].Lifetime)
			post, err := r.snowflakeAccess(w, r.cfg.Sites)
			if err != nil {
				return nil, err
			}
			return &surgeAccess{Pre: pre, Post: post}, nil
		})
}

// runFig10 prints the snowflake user-count timeline (10a, from the load
// model) and access time before/after the surge (10b).
func (r *Runner) runFig10() error {
	fmt.Fprintln(r.out, "Modeled snowflake daily users (relative load timeline)")
	t := newTable("period", "users", "proxy-utilization", "mean-proxy-lifetime")
	base := 20000.0
	for _, lv := range surgePhases {
		users := int(base * (1 + 6*lv.Util))
		t.add(lv.Label, fmt.Sprintf("%d", users), fmt.Sprintf("%.2f", lv.Util), lv.Lifetime.String())
	}
	t.write(r.out)
	fmt.Fprintln(r.out)

	v, err := r.fig10Task().Wait()
	if err != nil {
		return err
	}
	surge := v.(*surgeAccess)
	rows := []boxRow{
		{"pre-September", stats.Summarize(surge.Pre)},
		{"post-September", stats.Summarize(surge.Post)},
	}
	r.writeBoxes("Snowflake website access time before/after the surge (s)", rows)
	if res, err := stats.PairedT(surge.Pre, surge.Post); err == nil {
		fmt.Fprintf(r.out, "paired t (pre−post): t=%.2f P=%s CI=[%.2f, %.2f] mean-diff=%.2f\n\n",
			res.T, pvalue(res.P), res.CILower, res.CIUpper, res.MeanDiff)
	}
	return nil
}

// runFig11 prints the browsertime speed-index boxes.
func (r *Runner) runFig11() error {
	data, err := r.seleniumData()
	if err != nil {
		return err
	}
	r.writeBoxes("Speed index (seconds; camoufler unsupported)",
		boxRows(data, speedIx, orderedMethods(r.cfg.Transports)))
	return nil
}

// labeledSamples is one labeled sample vector of a world-task result.
type labeledSamples struct {
	Label string
	Xs    []float64
}

// fig12Task submits the monthly-monitoring world: the surge phases
// stepped in sequence on one snowflake deployment.
func (r *Runner) fig12Task() *sim.Future[any] {
	spec := r.cellSpec(fmt.Sprintf("sites=%d", r.cfg.Sites))
	return r.worldTask("fig12", r.manualLoadOptions(streamFig12), spec,
		jsonValue[[]labeledSamples](),
		func(w *testbed.World) (any, error) {
			d, err := w.Deployment("snowflake")
			if err != nil {
				return nil, err
			}
			n := r.cfg.Sites / 2
			if n < 4 {
				n = 4
			}
			var series []labeledSamples
			for _, lv := range surgePhases {
				if lv.Label == "post-Sept-2022" {
					continue // fig12 shows pre + the monthly series
				}
				d.Snowflake().SetLoad(lv.Util, lv.Lifetime)
				xs, err := r.snowflakeAccess(w, n)
				if err != nil {
					return nil, err
				}
				series = append(series, labeledSamples{Label: lv.Label, Xs: xs})
			}
			return series, nil
		})
}

// runFig12 prints the post-September monthly monitoring boxes.
func (r *Runner) runFig12() error {
	v, err := r.fig12Task().Wait()
	if err != nil {
		return err
	}
	var rows []boxRow
	for _, s := range v.([]labeledSamples) {
		rows = append(rows, boxRow{s.Label, stats.Summarize(s.Xs)})
	}
	r.writeBoxes("Snowflake monthly website access time (s)", rows)
	return nil
}

// runTables34 prints the curl paired t-test table.
func (r *Runner) runTables34() error {
	data, err := r.curlData()
	if err != nil {
		return err
	}
	writePairedT(r.out, "Paired t-tests, website access via curl (all method pairs)",
		allPairs(data, times, orderedMethods(r.cfg.Transports)))
	return nil
}

// runTables56 prints the selenium paired t-test table.
func (r *Runner) runTables56() error {
	data, err := r.seleniumData()
	if err != nil {
		return err
	}
	writePairedT(r.out, "Paired t-tests, website access via selenium (all method pairs)",
		allPairs(data, times, orderedMethods(r.cfg.Transports)))
	return nil
}

// runTable7 prints the file-download paired t-test table, pairing
// attempts by (size, attempt index).
func (r *Runner) runTable7() error {
	data, err := r.filesData()
	if err != nil {
		return err
	}
	acc := map[string]*accessData{}
	//simlint:allow maprange -- per-key transform into a fresh map; keys are independent, so writes commute, and allPairs orders methods explicitly.
	for name, fd := range data {
		d := &accessData{Name: name}
		for _, a := range fd.Attempts {
			d.Times = append(d.Times, a.Seconds)
		}
		acc[name] = d
	}
	writePairedT(r.out, "Paired t-tests, file download times (attempts paired by size and index)",
		allPairs(acc, times, orderedMethods(r.cfg.Transports)))
	return nil
}

// runTables89 prints the speed-index paired t-test table.
func (r *Runner) runTables89() error {
	data, err := r.seleniumData()
	if err != nil {
		return err
	}
	writePairedT(r.out, "Paired t-tests, speed index (all method pairs)",
		allPairs(data, speedIx, orderedMethods(r.cfg.Transports)))
	return nil
}

// runTable10 prints the category-pair t-tests over the curl data.
func (r *Runner) runTable10() error {
	data, err := r.curlData()
	if err != nil {
		return err
	}
	cats := pt.ByCategory()
	catData := map[string]*accessData{}
	if d, ok := data["tor"]; ok {
		catData["Tor"] = d
	}
	//simlint:allow maprange -- per-category aggregation: each key writes only its own catData entry (members iterate a slice), so writes commute; allPairsNamed fixes the output order.
	for cat, members := range cats {
		agg := &accessData{Name: cat.String()}
		var n int
		for _, m := range members {
			d, ok := data[m]
			if !ok {
				continue
			}
			if agg.Times == nil {
				agg.Times = make([]float64, len(d.Times))
			}
			for i, v := range d.Times {
				agg.Times[i] += v
			}
			n++
		}
		if n == 0 {
			continue
		}
		for i := range agg.Times {
			agg.Times[i] /= float64(n)
		}
		catData[cat.String()] = agg
	}
	order := []string{"Tor", pt.ProxyLayer.String(), pt.Tunneling.String(), pt.Mimicry.String(), pt.FullyEncrypted.String()}
	writePairedT(r.out, "Paired t-tests, PT category pairs (curl access)",
		allPairsNamed(catData, order))
	return nil
}

// allPairsNamed is allPairs over explicitly named datasets.
func allPairsNamed(data map[string]*accessData, order []string) []pairResult {
	var out []pairResult
	for i := 0; i < len(order); i++ {
		a, ok := data[order[i]]
		if !ok {
			continue
		}
		for j := i + 1; j < len(order); j++ {
			b, ok := data[order[j]]
			if !ok {
				continue
			}
			res, err := stats.PairedT(a.Times, b.Times)
			if err != nil {
				continue
			}
			out = append(out, pairResult{Name: order[i] + "-" + order[j], Res: res})
		}
	}
	return out
}
