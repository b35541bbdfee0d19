package harness

import (
	"ptperf/internal/sim"
	"ptperf/internal/testbed"
)

// This file is the cell engine every experiment runs on. A cell is one
// world task: a key, a seed stream, an options tweak, the non-axis
// knobs its measurement reads, and a typed measure. The engine owns the
// rest: it derives the world options and the cache spec, submits the
// task once per Runner through worldTask, and hands the joined result
// back as T. Experiments list the cells they read; Run submits them
// before rendering. The grid engine (grid.go) builds one cell per axis
// value, and the paper's one-off worlds (access:curl, access:selenium,
// files, fig3, fig4, fig9, fig10, fig12) are single declarations.

// Seed streams. Every cell derives its Options.Seed from
// sim.DeriveSeed(cfg.Seed, stream...): distinct streams are
// statistically independent, equal streams rebuild identical worlds.
// The campaign worlds (curl, selenium, files) share streamCampaign so
// the three paper campaigns measure the same topology, and every sweep
// cell shares streamScenario so the only difference between scenario
// columns is the interference itself. Per-cell indices (fig7's
// location, medium's access medium) go in as further path elements —
// never added into the stream id, which would reintroduce the additive
// collisions DeriveSeed removes.
const (
	streamCampaign   = 0
	streamFig3       = 1000
	streamFig4       = 1100
	streamFig7       = 1200 // path element 2: location index
	streamFig9       = 2000
	streamFig10      = 3000
	streamFig12      = 3100
	streamMedium     = 4000 // path element 2: medium index
	streamScenario   = 5000
	streamContention = 6000 // one seed for every contention cell
	streamChurn      = 7000 // one seed for every churn cell
)

// worldCell is a cell of any result type, as an Experiment lists it.
type worldCell interface {
	cellKey() string
	submit(r *Runner) *sim.Future[any]
}

// cell declares one world task whose result is T.
type cell[T any] struct {
	// key names the cell: it is the Runner's memoization key, part of
	// the cache digest, and the Prometheus cell= label.
	key string
	// stream is the seed path under Config.Seed.
	stream []int64
	// tweak adjusts the world options after they are built; nil keeps
	// them.
	tweak func(*testbed.Options)
	// knobs names what measure reads besides the world options; it
	// completes the cell's cache spec.
	knobs   func(Config) string
	measure func(r *Runner, w *testbed.World) (T, error)
}

func (c *cell[T]) cellKey() string { return c.key }

// options builds the cell's world on its seed stream.
func (c *cell[T]) options(r *Runner) testbed.Options {
	opts := testbed.Options{
		Seed:      sim.DeriveSeed(r.cfg.Seed, c.stream...),
		ByteScale: r.cfg.ByteScale,
		TrancoN:   r.cfg.Sites,
		CBLN:      r.cfg.Sites,
		Scenario:  r.cfg.Scenario,
	}
	if c.tweak != nil {
		c.tweak(&opts)
	}
	return opts
}

// submit submits (once) the cell on r's shard executor.
func (c *cell[T]) submit(r *Runner) *sim.Future[any] {
	return worldTask(r, c.key, c.options(r), r.cellSpec(c.knobs(r.cfg)),
		func(w *testbed.World) (T, error) { return c.measure(r, w) })
}

// wait submits the cell if needed and joins its result.
func (c *cell[T]) wait(r *Runner) (T, error) {
	v, err := c.submit(r).Wait()
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}
