package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ptperf/internal/obs"
	"ptperf/internal/sim"
	"ptperf/internal/testbed"
)

// This file wires the observability layer (internal/obs) into the
// Runner: every world task goes through worldTask, which attaches a
// metric recorder when Config.MetricsInterval is set, consults the
// content-addressed result cache when EnableCache was called, and
// reports the cell's virtual-time horizon to the progress monitor.
//
// The cache contract: a cell's digest covers its key, its (defaulted)
// testbed.Options, a spec string naming exactly the harness knobs its
// measurement reads, and the code version. Specs are deliberately
// per-cell-kind — fig7's cells do not read Config.Repeats, so changing
// Repeats must invalidate fig3/fig4 but not fig7. Jobs and Plot are
// never in a spec: the first cannot change results (the determinism
// contract) and the second only affects rendering.

// EnableCache attaches a content-addressed result cache rooted at dir
// (created if needed). Call before submitting any task.
func (r *Runner) EnableCache(dir string) error {
	c, err := obs.OpenCache(dir)
	if err != nil {
		return err
	}
	r.cache = c
	return nil
}

// CacheStats reports this run's cache traffic (zero when no cache is
// attached).
func (r *Runner) CacheStats() obs.CacheStats {
	if r.cache == nil {
		return obs.CacheStats{}
	}
	return r.cache.Stats()
}

// cellSpec renders a cell's campaign-input spec: the globally relevant
// knobs, then the cell's own. Sequential changes per-method
// concurrency. The sampling interval changes no result, but it stays in
// the spec because a metrics-off entry stores no timeline: a metrics-on
// run must not hit it.
func (r *Runner) cellSpec(knobs string) string {
	return fmt.Sprintf("metrics=%s sequential=%v %s", r.cfg.MetricsInterval, r.cfg.Sequential, knobs)
}

// worldTask submits (once) the keyed world cell: consult the cache,
// else build the world from opts, run measure over it, and store the
// result. The recorder is attached between world build and measure, so
// timelines cover exactly the measured campaign. measure's result must
// survive a JSON round trip unchanged (all cell types do) — that is
// what makes a cache hit render byte-identically.
func worldTask[T any](r *Runner, key string, opts testbed.Options, spec string, measure func(*testbed.World) (T, error)) *sim.Future[any] {
	return r.task(key, func() (any, error) {
		var digest string
		if r.cache != nil {
			digest = obs.CellDigest(key, opts, spec)
			if e, ok := r.cache.Load(digest); ok {
				var v T
				if err := json.Unmarshal(e.Value, &v); err == nil {
					r.monitor.Cached(key)
					r.setTimeline(key, e.Timeline)
					return v, nil
				}
				// An undecodable entry (schema drift without a version
				// bump) falls through to recompute and overwrite.
			}
		}
		w, err := testbed.New(opts)
		if err != nil {
			return nil, err
		}
		clock := w.Net.Clock()
		r.monitor.Horizon(key, clock.Now)
		var rec *obs.Recorder
		if r.cfg.MetricsInterval > 0 {
			rec = obs.AttachWorld(w, r.cfg.MetricsInterval)
		}
		v, err := measure(w)
		if err != nil {
			return nil, err
		}
		var tl *obs.Timeline
		if rec != nil {
			tl = rec.Close()
			r.setTimeline(key, tl)
		}
		if r.cache != nil {
			raw, jerr := json.Marshal(v)
			if jerr != nil {
				return nil, fmt.Errorf("%s: cache encode: %w", key, jerr)
			}
			if serr := r.cache.Store(&obs.Entry{Key: key, Digest: digest, Value: raw, Timeline: tl}); serr != nil {
				return nil, fmt.Errorf("%s: %w", key, serr)
			}
		}
		return v, nil
	})
}

func (r *Runner) setTimeline(key string, tl *obs.Timeline) {
	if tl == nil {
		return
	}
	r.omu.Lock()
	r.timelines[key] = tl
	r.omu.Unlock()
}

// Timelines returns the recorded (or cache-restored) metric timelines
// in canonical cell-key order. Empty unless MetricsInterval is set.
func (r *Runner) Timelines() []obs.CellTimeline {
	r.omu.Lock()
	defer r.omu.Unlock()
	keys := make([]string, 0, len(r.timelines))
	for k := range r.timelines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]obs.CellTimeline, 0, len(keys))
	for _, k := range keys {
		out = append(out, obs.CellTimeline{Cell: k, Timeline: r.timelines[k]})
	}
	return out
}

// Sections returns the experiment reports captured by Run, in run
// order.
func (r *Runner) Sections() []obs.Section {
	r.omu.Lock()
	defer r.omu.Unlock()
	return append([]obs.Section(nil), r.sections...)
}

// configSummary renders the campaign configuration lines the HTML
// report heads with.
func (r *Runner) configSummary() string {
	c := r.cfg
	return fmt.Sprintf(
		"seed=%d bytescale=%g sites=%d repeats=%d attempts=%d sizes=%v\ntransports=%s\nscenario=%q sequential=%v metrics-interval=%s",
		c.Seed, c.ByteScale, c.Sites, c.Repeats, c.FileAttempts, c.FileSizesMB,
		strings.Join(c.Transports, ","), c.Scenario, c.Sequential, c.MetricsInterval)
}

// WritePrometheus writes the run's metric timelines as Prometheus text
// exposition.
func (r *Runner) WritePrometheus(w io.Writer) {
	obs.WritePrometheus(w, r.Timelines())
}

// WriteArtifacts writes the run's export artifacts after Run returns:
// metricsDir (when non-empty) receives metrics.prom, reportPath (when
// non-empty) the self-contained HTML report. historyPath, when naming
// an existing JSONL benchmark-history file, adds the perf-trajectory
// section.
func (r *Runner) WriteArtifacts(metricsDir, reportPath, historyPath string) error {
	if metricsDir != "" {
		if err := os.MkdirAll(metricsDir, 0o755); err != nil {
			return fmt.Errorf("harness: metrics dir: %w", err)
		}
		var b bytes.Buffer
		r.WritePrometheus(&b)
		if err := os.WriteFile(filepath.Join(metricsDir, "metrics.prom"), b.Bytes(), 0o644); err != nil {
			return fmt.Errorf("harness: write metrics: %w", err)
		}
	}
	if reportPath != "" {
		rep := obs.HTMLReport{
			Title:    "PTPerf campaign report",
			Config:   r.configSummary(),
			Sections: r.Sections(),
			Cells:    r.Timelines(),
		}
		if historyPath != "" {
			if f, err := os.Open(historyPath); err == nil {
				rep.History = obs.ParseBenchHistory(f)
				f.Close()
			}
		}
		f, err := os.Create(reportPath)
		if err != nil {
			return fmt.Errorf("harness: write report: %w", err)
		}
		if err := obs.WriteHTML(f, rep); err != nil {
			f.Close()
			return fmt.Errorf("harness: write report: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("harness: write report: %w", err)
		}
	}
	return nil
}
