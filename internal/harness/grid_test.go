package harness

import (
	"bytes"
	"testing"
	"time"

	"ptperf/internal/obs"
)

// gridConfig is the small campaign both grid oracles run sweep and
// contention on.
func gridConfig() Config {
	return Config{
		Seed:       3,
		ByteScale:  0.06,
		Sites:      3,
		Repeats:    1,
		Transports: []string{"tor", "obfs4", "snowflake"},
	}
}

// gridRun runs sweep then contention, optionally against a cache, and
// returns the report and the cache traffic.
func gridRun(t *testing.T, cfg Config, cacheDir string) (string, obs.CacheStats) {
	t.Helper()
	var buf bytes.Buffer
	r := New(cfg, &buf)
	if cacheDir != "" {
		if err := r.EnableCache(cacheDir); err != nil {
			t.Fatalf("enable cache: %v", err)
		}
	}
	for _, exp := range []string{"sweep", "contention"} {
		if err := r.Run(exp); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	return buf.String(), r.CacheStats()
}

// TestGridCacheSpecs pins the hit/miss matrix of the grid families'
// cache specs. Sweep has 8 cells and reads the method list; contention
// has 5 (four load levels plus the FIFO baseline) and reads Repeats.
// Each mutation starts from the warmed base config, so a cell misses
// exactly when a knob its measurement reads has changed.
func TestGridCacheSpecs(t *testing.T) {
	dir := t.TempDir()
	base := gridConfig()
	if _, st := gridRun(t, base, dir); st.Misses != 13 || st.Hits != 0 {
		t.Fatalf("cold run stats = %+v, want 0 hits / 13 misses", st)
	}
	if _, st := gridRun(t, base, dir); st.Misses != 0 || st.Hits != 13 {
		t.Fatalf("warm run stats = %+v, want 13 hits / 0 misses", st)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		misses int
	}{
		{"repeats+1 recomputes the 5 contention cells", func(c *Config) { c.Repeats++ }, 5},
		{"dropping a transport recomputes the 8 sweep cells", func(c *Config) { c.Transports = c.Transports[:2] }, 8},
		{"attempts+1 recomputes nothing", func(c *Config) { c.FileAttempts = 3 }, 0},
	} {
		cfg := base
		cfg.Transports = append([]string(nil), base.Transports...)
		tc.mutate(&cfg)
		if _, st := gridRun(t, cfg, dir); st.Misses != tc.misses || st.Hits != 13-tc.misses {
			t.Errorf("%s: stats = %+v, want %d hits / %d misses", tc.name, st, 13-tc.misses, tc.misses)
		}
	}
}

// TestMetricsDoNotChangeReports is the metrics-on ≡ metrics-off
// oracle: the sampler only runs when a world's ready queue is empty and
// never readies a goroutine, so turning it on must not move a single
// byte of the report.
func TestMetricsDoNotChangeReports(t *testing.T) {
	off, _ := gridRun(t, gridConfig(), "")
	cfg := gridConfig()
	cfg.MetricsInterval = time.Second
	on, _ := gridRun(t, cfg, "")
	if off != on {
		t.Fatalf("metric sampling changed the report:\n--- off ---\n%s\n--- on ---\n%s", off, on)
	}
}
