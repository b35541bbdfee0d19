package harness

import (
	"fmt"
	"io"
	"strings"

	"ptperf/internal/plot"
	"ptperf/internal/stats"
)

// table is a minimal aligned-column text table writer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) && i != len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, b.String())
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// boxRow is one named row of a box-plot table.
type boxRow struct {
	Name string
	Box  stats.Box
}

// cells renders the row as table cells.
func (row boxRow) cells() []string {
	b := row.Box
	return []string{
		row.Name,
		fmt.Sprintf("%d", b.N),
		fmt.Sprintf("%.2f", b.Min),
		fmt.Sprintf("%.2f", b.Q1),
		fmt.Sprintf("%.2f", b.Median),
		fmt.Sprintf("%.2f", b.Q3),
		fmt.Sprintf("%.2f", b.Max),
		fmt.Sprintf("%.2f", b.Mean),
		fmt.Sprintf("%.2f", b.SD),
	}
}

var boxHeader = []string{"method", "n", "min", "q1", "median", "q3", "max", "mean", "sd"}

// writeBoxes prints one box-plot table (plus the ASCII figure when the
// runner plots).
func (r *Runner) writeBoxes(title string, rows []boxRow) {
	w := r.out
	fmt.Fprintf(w, "%s\n", title)
	t := newTable(boxHeader...)
	for _, row := range rows {
		t.add(row.cells()...)
	}
	t.write(w)
	fmt.Fprintln(w)
	if r.cfg.Plot {
		pb := make([]plot.Box, 0, len(rows))
		for _, row := range rows {
			pb = append(pb, plot.Box{Label: row.Name, Stats: row.Box})
		}
		plot.Boxes(w, title+" — box plot", pb, 64, false)
	}
}

// writeECDF prints an ECDF as decile rows (plus the ASCII curve when
// the runner plots).
func (r *Runner) writeECDF(title string, series map[string][]float64, order []string) {
	w := r.out
	fmt.Fprintf(w, "%s\n", title)
	head := []string{"method"}
	qs := []float64{0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 0.95, 1.0}
	for _, q := range qs {
		head = append(head, fmt.Sprintf("p%02.0f", q*100))
	}
	t := newTable(head...)
	for _, name := range order {
		xs, ok := series[name]
		if !ok || len(xs) == 0 {
			continue
		}
		e := stats.NewECDF(xs)
		row := []string{name}
		for _, q := range qs {
			row = append(row, fmt.Sprintf("%.2f", e.InverseAt(q)))
		}
		t.add(row...)
	}
	t.write(w)
	fmt.Fprintln(w)
	if r.cfg.Plot {
		ps := make([]plot.Series, 0, len(order))
		for _, name := range order {
			if xs, ok := series[name]; ok && len(xs) > 0 {
				ps = append(ps, plot.Series{Label: name, Values: xs})
			}
		}
		plot.ECDF(w, title+" — ECDF", ps, 64, 12)
	}
}

// writePairedT prints the paper's t-test table layout: pair, CI bounds,
// t, P, mean difference.
func writePairedT(w io.Writer, title string, pairs []pairResult) {
	fmt.Fprintf(w, "%s\n", title)
	t := newTable("pair", "ci-lower", "ci-upper", "t-value", "p-value", "mean-diff")
	for _, p := range pairs {
		t.add(
			p.Name,
			fmt.Sprintf("%.3f", p.Res.CILower),
			fmt.Sprintf("%.3f", p.Res.CIUpper),
			fmt.Sprintf("%.2f", p.Res.T),
			pvalue(p.Res.P),
			fmt.Sprintf("%.3f", p.Res.MeanDiff),
		)
	}
	t.write(w)
	fmt.Fprintln(w)
}

// pairResult is one row of a t-test table.
type pairResult struct {
	Name string
	Res  stats.TTestResult
}

// pvalue renders like the paper: "<.001" below the threshold.
func pvalue(p float64) string {
	if p < 0.001 {
		return "<.001"
	}
	return fmt.Sprintf("%.3f", p)
}

// allPairs runs paired t-tests over every method pair of the dataset.
func allPairs(data map[string]*accessData, pick func(*accessData) []float64, order []string) []pairResult {
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
			res, err := stats.PairedT(pick(a), pick(b))
			if err != nil {
				continue
			}
			out = append(out, pairResult{Name: a.Name + "-" + b.Name, Res: res})
		}
	}
	return out
}
