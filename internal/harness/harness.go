// Package harness runs the paper's experiments: it builds testbed
// worlds, drives the measurement campaigns (curl, selenium, speed index,
// bulk files, locations, load scenarios), applies the statistics, and
// prints each table and figure of the evaluation section.
//
// Execution is sharded by world (see internal/sim): an experiment
// decomposes into independent world tasks — one per campaign world,
// per sweep scenario cell, per client location — submitted to a shard
// executor that runs up to Config.Jobs of them on real OS parallelism.
// Each task builds its own virtual clock, so intra-world behaviour is
// bit-identical to sequential execution, and reports are assembled in
// canonical order after join, never in completion order: the same seed
// produces byte-identical reports at any -jobs value.
package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"ptperf/internal/censor"
	"ptperf/internal/netem"
	"ptperf/internal/obs"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
	"ptperf/internal/testbed"
	"ptperf/internal/web"
)

// Config sizes a campaign. The zero value is a CI-friendly small run;
// the paper-scale campaign raises Sites/Repeats/FileAttempts.
type Config struct {
	// Seed drives the whole campaign deterministically.
	Seed int64
	// ByteScale scales sizes, rates and caps together (see testbed).
	ByteScale float64
	// Sites is the number of sites measured per catalog.
	Sites int
	// Repeats is accesses per site (the paper uses 5).
	Repeats int
	// FileAttempts is download attempts per file size (paper: 10–20).
	FileAttempts int
	// FileSizesMB selects which of Figure 5's sizes to run.
	FileSizesMB []int
	// Transports lists methods to evaluate; empty means all 12 + tor.
	Transports []string
	// Scenario names a censor scenario (internal/censor registry) that
	// every experiment's world is built under. Empty leaves the paper
	// experiments on unpoliced networks; the scenario:<name> and sweep
	// experiments select their scenarios themselves.
	Scenario string
	// Jobs bounds how many independent world tasks run concurrently on
	// OS threads (0 = runtime.GOMAXPROCS(0), 1 = fully sequential).
	// Reports are byte-identical for any value; Jobs trades memory for
	// wall-clock time only.
	Jobs int
	// Sequential disables the per-transport parallelism inside one
	// world (simulation goroutines on that world's clock). It does not
	// affect Jobs, which parallelizes across worlds.
	Sequential bool
	// Plot adds ASCII box plots and ECDF curves under the tables,
	// mirroring the paper's figure shapes.
	Plot bool
	// MetricsInterval enables per-cell metric timelines (internal/obs),
	// sampled every MetricsInterval of virtual time on each world's own
	// clock. Zero disables sampling. Sampling never changes a report:
	// the sampler wakes only on its own timer and readies no other
	// goroutine, so every other event keeps its order. The interval is
	// still part of every cache digest, because a metrics-off entry
	// stores no timeline for a metrics-on run to replay.
	MetricsInterval time.Duration
	// Progress, when non-nil, receives a streaming per-cell status line
	// (cells queued/running/done, virtual-time horizon per running
	// cell). It is written from task goroutines in completion order —
	// point it at stderr, never at the report stream.
	Progress io.Writer
}

// DefaultMetricsInterval is the sampling interval campaign drivers use
// when metric export is requested without an explicit interval.
const DefaultMetricsInterval = obs.DefaultInterval

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ByteScale <= 0 {
		c.ByteScale = 0.125
	}
	if c.Sites <= 0 {
		c.Sites = 12
	}
	if c.Repeats <= 0 {
		c.Repeats = 2
	}
	if c.FileAttempts <= 0 {
		c.FileAttempts = 2
	}
	if len(c.FileSizesMB) == 0 {
		c.FileSizesMB = web.FileSizesMB
	}
	if len(c.Transports) == 0 {
		c.Transports = append([]string{"tor"}, pt.Names()...)
	}
	if c.Jobs <= 0 {
		c.Jobs = runtime.GOMAXPROCS(0)
	}
	return c
}

// Runner executes experiments and writes reports.
type Runner struct {
	cfg     Config
	out     io.Writer
	exec    *sim.Executor
	monitor *sim.Monitor // nil unless Config.Progress is set
	cache   *obs.Cache   // nil unless EnableCache was called

	mu    sync.Mutex
	tasks map[string]*sim.Future[any]

	// omu guards the observability sinks: per-cell timelines and the
	// captured experiment sections the HTML report embeds.
	omu       sync.Mutex
	timelines map[string]*obs.Timeline
	sections  []obs.Section
}

// New creates a Runner writing its reports to out.
func New(cfg Config, out io.Writer) *Runner {
	c := cfg.withDefaults()
	r := &Runner{
		cfg:       c,
		out:       out,
		exec:      sim.NewExecutor(c.Jobs),
		tasks:     make(map[string]*sim.Future[any]),
		timelines: make(map[string]*obs.Timeline),
	}
	if c.Progress != nil {
		r.monitor = sim.NewMonitor(c.Progress)
	}
	return r
}

// task submits (once) the keyed world task fn on the shard executor and
// returns its future; later calls with the same key return the same
// future. This is the Runner's memoization: experiments submit every
// world they need up front (prefetch), then join and render in
// canonical order, so reports never depend on completion order. Task
// bodies must follow the sim package's determinism contract — build
// their own world, return values, never write to r.out, and never wait
// on another task's future (a full executor would deadlock).
func (r *Runner) task(key string, fn func() (any, error)) *sim.Future[any] {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.tasks[key]; ok {
		return f
	}
	r.monitor.Register(key)
	f := sim.Submit(r.exec, func() (any, error) {
		r.monitor.Start(key)
		v, err := fn()
		r.monitor.Finish(key, err)
		return v, err
	})
	r.tasks[key] = f
	return f
}

// Experiment describes one runnable artifact reproduction.
type Experiment struct {
	// ID is the CLI name (e.g. "fig2a").
	ID string
	// Artifact names the paper table/figure.
	Artifact string
	// Title is a one-line description.
	Title string
	// Optional experiments (the censor scenarios, the sweep, guard
	// contention and relay churn) go beyond the paper's artifacts and
	// are excluded from "all".
	Optional bool
	// cells lists the world tasks run reads. Run submits them before
	// rendering, and "all" submits every paper experiment's cells up
	// front, so the executor overlaps all simulation work while reports
	// still render in paper order.
	cells []worldCell
	run   func(*Runner) error
}

// registry is the experiment table, built once: paper order, then the
// censor-scenario experiments, the sweep, contention and churn.
var registry = sync.OnceValue(func() []Experiment {
	exps := []Experiment{
		{ID: "table1", Artifact: "Table 1", Title: "measurement campaign overview", run: (*Runner).runTable1},
		{ID: "table2", Artifact: "Table 2", Title: "28 candidate transports at a glance", run: (*Runner).runTable2},
		{ID: "fig2a", Artifact: "Figure 2a", Title: "website access time, curl", cells: []worldCell{curlCell}, run: (*Runner).runFig2a},
		{ID: "fig2b", Artifact: "Figure 2b", Title: "website access time, selenium", cells: []worldCell{seleniumCell}, run: (*Runner).runFig2b},
		{ID: "fig3", Artifact: "Figure 3a/3b", Title: "fixed-circuit comparison and ECDF", cells: []worldCell{fig3Cell}, run: (*Runner).runFig3},
		{ID: "fig4", Artifact: "Figure 4", Title: "fixed guard, variable middle/exit", cells: []worldCell{fig4Cell}, run: (*Runner).runFig4},
		{ID: "fig5", Artifact: "Figure 5", Title: "file download time by size", cells: []worldCell{filesCell}, run: (*Runner).runFig5},
		{ID: "fig6", Artifact: "Figure 6", Title: "time to first byte ECDF", cells: []worldCell{curlCell}, run: (*Runner).runFig6},
		gridExperiment(fig7Grid(), "fig7", "Figure 7", "client-location variation", false),
		{ID: "fig8", Artifact: "Figure 8a/8b", Title: "download reliability", cells: []worldCell{filesCell}, run: (*Runner).runFig8},
		{ID: "fig9", Artifact: "Figure 9", Title: "PT overhead vs vanilla Tor", cells: []worldCell{fig9Cell}, run: (*Runner).runFig9},
		{ID: "fig10", Artifact: "Figure 10a/10b", Title: "snowflake under load", cells: []worldCell{fig10Cell}, run: (*Runner).runFig10},
		{ID: "fig11", Artifact: "Figure 11", Title: "speed index", cells: []worldCell{seleniumCell}, run: (*Runner).runFig11},
		{ID: "fig12", Artifact: "Figure 12", Title: "snowflake post-September months", cells: []worldCell{fig12Cell}, run: (*Runner).runFig12},
		gridExperiment(mediumGrid(), "medium", "Section 4.7", "wired vs wireless access medium", false),
		{ID: "table3", Artifact: "Tables 3–4", Title: "paired t-tests, curl access", cells: []worldCell{curlCell}, run: (*Runner).runTables34},
		{ID: "table5", Artifact: "Tables 5–6", Title: "paired t-tests, selenium access", cells: []worldCell{seleniumCell}, run: (*Runner).runTables56},
		{ID: "table7", Artifact: "Table 7", Title: "paired t-tests, file download", cells: []worldCell{filesCell}, run: (*Runner).runTable7},
		{ID: "table8", Artifact: "Tables 8–9", Title: "paired t-tests, speed index", cells: []worldCell{seleniumCell}, run: (*Runner).runTables89},
		{ID: "table10", Artifact: "Table 10", Title: "paired t-tests, PT categories", cells: []worldCell{curlCell}, run: (*Runner).runTable10},
	}
	// Each scenario:<name> experiment renders one cell of the sweep,
	// so the two share that cell's declaration and result.
	sweep := sweepGrid()
	for _, name := range censor.Names() {
		sc, _ := censor.Lookup(name)
		exps = append(exps, gridExperiment(sweep.section(name), "scenario:"+name, "Censor layer", sc.Description, true))
	}
	return append(exps,
		gridExperiment(sweep, "sweep", "Censor layer",
			"scenario sweep: {transports} × {scenarios} vs the clean baseline", true),
		gridExperiment(contentionGrid(), "contention", "Relay scheduler",
			"guard-contention sweep: {tor,obfs4,webtunnel} × {competitor load} + FIFO baseline", true),
		gridExperiment(churnGrid(), "churn", "Failure & recovery",
			"churn-resilience sweep: {tor,obfs4,webtunnel,snowflake} × {relay churn rate} vs the fault-free baseline", true),
	)
})

// Experiments lists every reproducible artifact in paper order, then
// the censor-scenario experiments. The slice is the caller's copy.
func Experiments() []Experiment { return slices.Clone(registry()) }

// gridExperiment registers a grid entry as an experiment.
func gridExperiment(g *grid, id, artifact, title string, optional bool) Experiment {
	e := Experiment{ID: id, Artifact: artifact, Title: title, Optional: optional, run: g.run}
	for _, c := range g.cells {
		e.cells = append(e.cells, c)
	}
	return e
}

// Run executes one experiment by ID ("all" runs every paper artifact;
// the optional experiments — censor scenarios, sweep, contention and
// churn — run by explicit ID).
func (r *Runner) Run(id string) error {
	exps := registry()
	if id == "all" {
		// Submit every experiment's world tasks before rendering any:
		// the executor keeps all cores busy while the reports are
		// still written strictly in paper order.
		for _, e := range exps {
			if !e.Optional {
				r.submit(e)
			}
		}
		for _, e := range exps {
			if e.Optional {
				continue
			}
			if err := r.render(e); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		return nil
	}
	for _, e := range exps {
		if e.ID == id {
			return r.render(e)
		}
	}
	ids := make([]string, 0, len(exps))
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	return fmt.Errorf("harness: unknown experiment %q (have all, %s)", id, strings.Join(ids, ", "))
}

// submit submits the experiment's cells without waiting.
func (r *Runner) submit(e Experiment) {
	for _, c := range e.cells {
		c.submit(r)
	}
}

// render runs one experiment and writes its report.
func (r *Runner) render(e Experiment) error {
	r.submit(e)
	// Tee the experiment's report into a section buffer so the HTML
	// artifact can embed it. Rendering is single-threaded (tasks never
	// write r.out), so swapping the writer is safe.
	var buf bytes.Buffer
	orig := r.out
	r.out = io.MultiWriter(orig, &buf)
	fmt.Fprintf(r.out, "\n=== %s — %s (%s) ===\n", e.ID, e.Title, e.Artifact)
	err := e.run(r)
	r.out = orig
	r.omu.Lock()
	r.sections = append(r.sections, obs.Section{ID: e.ID, Title: e.Title, Body: buf.String()})
	r.omu.Unlock()
	return err
}

// sites returns the paths of the first n measured sites: the first
// Sites entries of each catalog, Tranco first (order is what aligns
// paired samples).
func (r *Runner) sites(w *testbed.World, n int) []string {
	var out []string
	for i := 0; i < r.cfg.Sites && i < len(w.Tranco.Sites); i++ {
		out = append(out, w.Tranco.Sites[i].Path)
	}
	for i := 0; i < r.cfg.Sites && i < len(w.CBL.Sites); i++ {
		out = append(out, w.CBL.Sites[i].Path)
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// methodsInFlight bounds how many methods measure concurrently in one
// world.
const methodsInFlight = 16

// forEachMethod runs fn for each method over world w, at most limit at
// a time (one at a time when Sequential), and returns results keyed by
// method name. Bulk campaigns use a limit of 1 so simultaneous
// downloads do not contend on the shared relay fleet in a way the
// paper's time-gapped measurements never did. The per-method
// goroutines are simulation goroutines on w's scheduler, so they
// interleave deterministically at virtual-time waits. All per-method
// errors are aggregated (errors.Join); failed methods leave no entry
// in the result map. Error order is deterministic: the per-method
// goroutines finish in virtual-time order.
func forEachMethod[T any](r *Runner, w *testbed.World, methods []string, limit int, fn func(name string) (T, error)) (map[string]T, error) {
	if r.cfg.Sequential {
		limit = 1
	}
	clock := w.Net.Clock()
	out := make(map[string]T, len(methods))
	var mu sync.Mutex
	var errs []error
	wg := netem.NewWaitGroup(clock)
	sem := netem.NewChan[struct{}](clock, limit)
	for _, name := range methods {
		name := name
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			sem.Send(struct{}{})
			defer sem.Recv()
			v, err := fn(name)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", name, err))
				return
			}
			out[name] = v
		})
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// seconds converts a virtual duration to float seconds for stats.
func seconds(d time.Duration) float64 { return d.Seconds() }

// orderedMethods keeps report rows in category order: Tor first, then
// the paper's PT ordering.
func orderedMethods(methods []string) []string {
	rank := map[string]int{"tor": 0}
	for i, n := range pt.Names() {
		rank[n] = i + 1
	}
	out := append([]string(nil), methods...)
	sort.Slice(out, func(i, j int) bool { return rank[out[i]] < rank[out[j]] })
	return out
}
