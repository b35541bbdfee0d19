package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"ptperf/internal/obs"
)

// gridConfig is the small campaign the grid oracles run sweep and
// contention on, and the cache-spec matrix also runs "all" on.
func gridConfig() Config {
	return Config{
		Seed:         3,
		ByteScale:    0.06,
		Sites:        3,
		Repeats:      1,
		FileAttempts: 1,
		FileSizesMB:  []int{5},
		Transports:   []string{"tor", "obfs4", "snowflake"},
	}
}

// gridExps are the two grid families the oracles run.
var gridExps = []string{"sweep", "contention"}

// gridRun runs exps in order, optionally against a cache, and returns
// the report and the cache traffic.
func gridRun(t *testing.T, cfg Config, cacheDir string, exps ...string) (string, obs.CacheStats) {
	t.Helper()
	var buf bytes.Buffer
	r := New(cfg, &buf)
	if cacheDir != "" {
		if err := r.EnableCache(cacheDir); err != nil {
			t.Fatalf("enable cache: %v", err)
		}
	}
	for _, exp := range exps {
		if err := r.Run(exp); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	return buf.String(), r.CacheStats()
}

// cachedKeys counts the cache's stored entries per cell key.
func cachedKeys(t *testing.T, dir string) map[string]int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]int{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var e obs.Entry
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		keys[e.Key]++
	}
	return keys
}

// TestGridCacheSpecs pins the hit/miss matrix of the cells' cache
// specs. Sweep has 8 cells and reads the method list; contention has 5
// (four load levels plus the FIFO baseline) and reads Repeats. "all"
// has 13: access:curl, access:selenium and files read the method list,
// the access cells and fig3/fig4 read Repeats, and files reads the
// sizes and attempts. Each mutation starts from the warmed base config,
// so a cell misses exactly when a knob its measurement reads has
// changed.
func TestGridCacheSpecs(t *testing.T) {
	dir := t.TempDir()
	base := gridConfig()
	for _, exps := range [][]string{gridExps, {"all"}} {
		if _, st := gridRun(t, base, dir, exps...); st.Misses != 13 || st.Hits != 0 {
			t.Fatalf("%v cold run stats = %+v, want 0 hits / 13 misses", exps, st)
		}
		if _, st := gridRun(t, base, dir, exps...); st.Misses != 0 || st.Hits != 13 {
			t.Fatalf("%v warm run stats = %+v, want 13 hits / 0 misses", exps, st)
		}
	}
	sweep := []string{"scenario:bridge-block", "scenario:clean", "scenario:evening-congestion", "scenario:lossy-path",
		"scenario:origin-throttle", "scenario:rst-injection", "scenario:snowflake-surge", "scenario:throttle-surge"}
	for _, tc := range []struct {
		name       string
		exps       []string
		mutate     func(*Config)
		recomputed []string
	}{
		{"repeats+1 recomputes the 5 contention cells", gridExps, func(c *Config) { c.Repeats++ },
			[]string{"contention:0", "contention:1", "contention:2", "contention:3", "contention:3:fifo"}},
		{"dropping a transport recomputes the 8 sweep cells", gridExps, func(c *Config) { c.Transports = c.Transports[:2] }, sweep},
		{"attempts+1 recomputes no grid cell", gridExps, func(c *Config) { c.FileAttempts++ }, nil},
		{"repeats+1 recomputes the access cells, fig3 and fig4", []string{"all"}, func(c *Config) { c.Repeats++ },
			[]string{"access:curl", "access:selenium", "fig3", "fig4"}},
		{"attempts+1 recomputes files", []string{"all"}, func(c *Config) { c.FileAttempts++ }, []string{"files"}},
		{"-sizes 10 recomputes files", []string{"all"}, func(c *Config) { c.FileSizesMB = []int{10} }, []string{"files"}},
		{"dropping a transport recomputes the access cells and files", []string{"all"},
			func(c *Config) { c.Transports = c.Transports[:2] }, []string{"access:curl", "access:selenium", "files"}},
	} {
		cfg := base
		cfg.Transports = append([]string(nil), base.Transports...)
		tc.mutate(&cfg)
		before := cachedKeys(t, dir)
		_, st := gridRun(t, cfg, dir, tc.exps...)
		if misses := len(tc.recomputed); st.Misses != misses || st.Hits != 13-misses {
			t.Errorf("%s: stats = %+v, want %d hits / %d misses", tc.name, st, 13-misses, misses)
		}
		var got []string
		for k, n := range cachedKeys(t, dir) {
			if n > before[k] {
				got = append(got, k)
			}
		}
		sort.Strings(got)
		if !slices.Equal(got, tc.recomputed) {
			t.Errorf("%s: recomputed %v, want %v", tc.name, got, tc.recomputed)
		}
	}
}

// TestMetricsDoNotChangeReports is the metrics-on ≡ metrics-off
// oracle: the sampler only runs when a world's ready queue is empty and
// never readies a goroutine, so turning it on must not move a single
// byte of the report.
func TestMetricsDoNotChangeReports(t *testing.T) {
	off, _ := gridRun(t, gridConfig(), "", gridExps...)
	cfg := gridConfig()
	cfg.MetricsInterval = time.Second
	on, _ := gridRun(t, cfg, "", gridExps...)
	if off != on {
		t.Fatalf("metric sampling changed the report:\n--- off ---\n%s\n--- on ---\n%s", off, on)
	}
}
