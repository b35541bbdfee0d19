package harness

import (
	"fmt"
	"strings"

	"ptperf/internal/stats"
	"ptperf/internal/testbed"
)

// This file is the experiment-grid engine. Every {methods} × {axis}
// experiment is one grid entry: the censor sweep and its scenario:<name>
// cells, guard contention, relay churn, the access medium (§4.7) and the
// client location (Figure 7). An entry declares its axis, methods,
// per-cell world options, a measure func, and the report's titles and
// counter columns. The engine owns the rest: one cell (cell.go) per
// axis value, with a cache spec it derives itself; the join in
// canonical axis order; the method@level box tables; the counter
// tables; and paired t-tests against the baseline, which is always the
// first axis value.

// gridLevel is one axis value, i.e. one cell of the grid.
type gridLevel struct {
	key   string // cell-key suffix: the cell key is "<prefix>:<key>"
	label string // the level's name in report rows
	i     int    // index into the entry's own level table
	// extra marks a cell beyond the axis (contention's FIFO re-run of
	// the top level): it shows only in the cell counter table.
	extra bool
}

// gridSamples is one method's measurements in one cell. Times (and
// TTFBs, where measured) are aligned across cells, with failures
// recorded as the timeout, so they pair against the baseline cell.
type gridSamples struct {
	Times, TTFBs []float64
	// Counters is the method's row of the per-method counter table.
	Counters []string `json:",omitempty"`
}

// gridCell is one cell's world-task result.
type gridCell struct {
	Methods map[string]*gridSamples
	// Counters is the cell's row of the cell counter table.
	Counters []string `json:",omitempty"`
}

// grid declares one experiment grid.
type grid struct {
	prefix string
	stream int64
	// seedByLevel adds the level index to the seed path: one independent
	// world per level (fig7, medium) rather than one world rebuilt under
	// each level.
	seedByLevel bool
	levels      []gridLevel
	cells       []*cell[*gridCell] // one per level, built by add
	methods     []string           // nil: the configured transports
	// knobs names what measure reads besides the world options, the
	// methods and the level; it completes the cells' cache spec.
	knobs   func(Config) string
	options func(*testbed.Options, gridLevel)
	measure func(r *Runner, w *testbed.World, methods []string, lv gridLevel) (*gridCell, error)

	// intro heads the report, formatting the method and level counts.
	intro string
	// perCell renders one section per level (the censor scenarios)
	// instead of one table per measure across the whole grid. Section
	// titles format the level label.
	perCell                bool
	sep                    string    // between method and level in row labels
	boxes                  [2]string // titles of the Times and TTFBs box tables
	methodTitle, cellTitle string
	methodCols, cellCols   []string
	pairs                  string // paired-t title; "" skips the block
	footer                 func(r *Runner, cells []*gridCell)
	note                   string // closing text, written verbatim
}

// add appends one axis value and its cell. The cell's spec names every
// input the measurement reads beyond the world options: the methods,
// the bound level, and the entry's declared knobs.
func (g *grid) add(lv gridLevel) {
	c := &cell[*gridCell]{
		key:    g.prefix + ":" + lv.key,
		stream: []int64{g.stream},
		knobs: func(cfg Config) string {
			spec := fmt.Sprintf("methods=%v level=%s", g.methodsFor(cfg), lv.key)
			if g.knobs != nil {
				spec += " " + g.knobs(cfg)
			}
			return spec
		},
		measure: func(r *Runner, w *testbed.World) (*gridCell, error) {
			return g.measure(r, w, g.methodsFor(r.cfg), lv)
		},
	}
	if g.seedByLevel {
		c.stream = append(c.stream, int64(lv.i))
	}
	if g.options != nil {
		c.tweak = func(o *testbed.Options) { g.options(o, lv) }
	}
	g.levels = append(g.levels, lv)
	g.cells = append(g.cells, c)
}

func (g *grid) methodsFor(c Config) []string {
	if g.methods == nil {
		return c.Transports
	}
	return g.methods
}

// run joins every cell in axis order and renders the report.
func (g *grid) run(r *Runner) error {
	methods := orderedMethods(g.methodsFor(r.cfg))
	cells := make([]*gridCell, len(g.cells))
	axis := 0
	for i, c := range g.cells {
		v, err := c.wait(r)
		if err != nil {
			return fmt.Errorf("%s: %w", c.key, err)
		}
		cells[i] = v
		if !g.levels[i].extra {
			axis++
		}
	}
	if g.intro != "" {
		fmt.Fprintf(r.out, g.intro+"\n\n", len(methods), axis)
	}
	if g.perCell {
		for i := range g.levels {
			g.render(r, methods, g.levels[i:i+1], cells[i:i+1])
		}
	} else {
		g.render(r, methods, g.levels, cells)
	}
	if g.pairs != "" {
		base := g.levels[0].label
		var pairs []pairResult
		for i, lv := range g.levels[1:] {
			if lv.extra {
				continue
			}
			for _, m := range methods {
				b, okB := cells[0].Methods[m]
				u, okU := cells[i+1].Methods[m]
				if !okB || !okU {
					continue
				}
				if res, err := stats.PairedT(u.Times, b.Times); err == nil {
					pairs = append(pairs, pairResult{Name: m + g.sep + lv.label + "-" + base, Res: res})
				}
			}
		}
		writePairedT(r.out, g.pairs, pairs)
	}
	if g.footer != nil {
		g.footer(r, cells)
	}
	fmt.Fprint(r.out, g.note)
	return nil
}

// render writes the box and counter tables of cells: the whole grid,
// or one level's section when perCell. A section's rows drop the level
// column, since its title names the level.
func (g *grid) render(r *Runner, methods []string, levels []gridLevel, cells []*gridCell) {
	title := func(t string) string {
		if g.perCell {
			return fmt.Sprintf(t, levels[0].label)
		}
		return t
	}
	lead := func(level, method string) []string {
		if g.perCell {
			return []string{method}
		}
		return []string{level, method}
	}
	for b, t := range g.boxes {
		if t == "" {
			continue
		}
		var rows []boxRow
		for i, lv := range levels {
			for _, m := range methods {
				s, ok := cells[i].Methods[m]
				if !ok || lv.extra {
					continue
				}
				xs := s.Times
				if b == 1 {
					xs = s.TTFBs
				}
				name := m + g.sep + lv.label
				if g.perCell {
					name = m
				}
				rows = append(rows, boxRow{name, stats.Summarize(xs)})
			}
		}
		r.writeBoxes(title(t), rows)
	}
	if g.methodCols != nil {
		mt := newTable(append(lead("level", "method"), g.methodCols...)...)
		for i, lv := range levels {
			for _, m := range methods {
				if s, ok := cells[i].Methods[m]; ok && !lv.extra {
					mt.add(append(lead(lv.label, m), s.Counters...)...)
				}
			}
		}
		fmt.Fprintln(r.out, title(g.methodTitle))
		mt.write(r.out)
		if !g.perCell {
			fmt.Fprintln(r.out)
		}
	}
	switch {
	case g.cellCols == nil:
	case g.perCell:
		kv := make([]string, len(g.cellCols))
		for i, c := range g.cellCols {
			kv[i] = c + "=" + cells[0].Counters[i]
		}
		fmt.Fprintf(r.out, "%s %s\n\n", g.cellTitle, strings.Join(kv, " "))
	default:
		ct := newTable(append([]string{"level"}, g.cellCols...)...)
		for i, lv := range levels {
			ct.add(append([]string{lv.label}, cells[i].Counters...)...)
		}
		fmt.Fprintln(r.out, g.cellTitle)
		ct.write(r.out)
		fmt.Fprintln(r.out)
	}
}

// counters renders one counter-table row.
func counters(vs ...any) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprint(v)
	}
	return out
}

// percent renders n of total as a whole percentage.
func percent(n, total int) string {
	return fmt.Sprintf("%.0f%%", 100*float64(n)/float64(total))
}
