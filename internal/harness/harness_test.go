package harness

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig keeps harness tests fast.
func tinyConfig() Config {
	return Config{
		Seed:         2,
		ByteScale:    0.06,
		Sites:        3,
		Repeats:      1,
		FileAttempts: 1,
		FileSizesMB:  []int{5},
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	paper := 0
	for _, e := range exps {
		if !e.Optional {
			paper++
		}
	}
	if paper != 20 {
		t.Fatalf("want 20 paper experiments, got %d", paper)
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Artifact == "" || e.run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, want := range []string{"fig2a", "fig5", "fig8", "fig9", "table10",
		"scenario:clean", "scenario:bridge-block", "sweep"} {
		if !seen[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	// Runner.task memoizes by cell key, so two declarations under one
	// key would silently share whichever result was submitted first.
	decl := map[string]worldCell{}
	for _, e := range exps {
		for _, c := range e.cells {
			if prev, ok := decl[c.cellKey()]; ok && prev != c {
				t.Errorf("%s: cell %q has a second declaration", e.ID, c.cellKey())
			}
			decl[c.cellKey()] = c
		}
	}
	if len(decl) != 13+8+5+3 {
		t.Errorf("registry declares %d cells, want 29 (13 paper, 8 sweep, 5 contention, 3 churn)", len(decl))
	}
	// Experiments hands out a copy: editing it leaves the table intact.
	exps[0].ID, exps[0].Optional = "mutated", true
	exps[1] = Experiment{}
	if again := Experiments(); again[0].ID != "table1" || again[0].Optional || again[1].ID != "table2" {
		t.Fatalf("editing Experiments' result changed the registry: %+v", again[:2])
	}
}

func TestUnknownExperiment(t *testing.T) {
	r := New(tinyConfig(), &bytes.Buffer{})
	if err := r.Run("fig99"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	r := New(tinyConfig(), &buf)
	if err := r.Run("table1"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Website Download (curl)") {
		t.Fatalf("missing overview rows:\n%s", out)
	}
}

func TestFig2aAndDependentTables(t *testing.T) {
	cfg := tinyConfig()
	// Keep the campaign small: three fast methods plus a slow one.
	cfg.Transports = []string{"tor", "obfs4", "webtunnel", "dnstt"}
	var buf bytes.Buffer
	r := New(cfg, &buf)
	if err := r.Run("fig2a"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, m := range cfg.Transports {
		if !strings.Contains(out, m) {
			t.Fatalf("fig2a output missing %s:\n%s", m, out)
		}
	}
	// The t-test table reuses the cached campaign: must be fast.
	buf.Reset()
	if err := r.Run("table3"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tor-obfs4") {
		t.Fatalf("table3 missing pair rows:\n%s", buf.String())
	}
	buf.Reset()
	if err := r.Run("fig6"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "p50") {
		t.Fatalf("fig6 missing quantile columns:\n%s", buf.String())
	}
}

func TestFig5AndFig8ShareFileCampaign(t *testing.T) {
	cfg := tinyConfig()
	cfg.Transports = []string{"tor", "obfs4", "meek"}
	var buf bytes.Buffer
	r := New(cfg, &buf)
	if err := r.Run("fig5"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "5MB") {
		t.Fatalf("fig5 missing size column:\n%s", buf.String())
	}
	buf.Reset()
	if err := r.Run("fig8"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "complete") || !strings.Contains(out, "meek") {
		t.Fatalf("fig8 output wrong:\n%s", out)
	}
}

func TestFig10SnowflakeLoad(t *testing.T) {
	cfg := tinyConfig()
	var buf bytes.Buffer
	r := New(cfg, &buf)
	if err := r.Run("fig10"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "pre-September") || !strings.Contains(out, "post-September") {
		t.Fatalf("fig10 output wrong:\n%s", out)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Sites == 0 || c.Repeats == 0 || len(c.Transports) != 13 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if len(c.FileSizesMB) != 5 {
		t.Fatalf("file sizes: %v", c.FileSizesMB)
	}
	if c.Jobs < 1 {
		t.Fatalf("Jobs must default to GOMAXPROCS, got %d", c.Jobs)
	}
}

func TestOrderedMethods(t *testing.T) {
	got := orderedMethods([]string{"marionette", "tor", "obfs4"})
	if got[0] != "tor" || got[1] != "obfs4" || got[2] != "marionette" {
		t.Fatalf("order: %v", got)
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	r := New(tinyConfig(), &buf)
	if err := r.Run("table2"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"obfs4", "covertcast", "12 of 28"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 missing %q:\n%s", want, out)
		}
	}
}

func TestMediumExperiment(t *testing.T) {
	cfg := tinyConfig()
	var buf bytes.Buffer
	r := New(cfg, &buf)
	if err := r.Run("medium"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "obfs4/wired") || !strings.Contains(out, "obfs4/wireless") {
		t.Fatalf("medium output wrong:\n%s", out)
	}
}

func TestPlotFlagAddsFigures(t *testing.T) {
	cfg := tinyConfig()
	cfg.Plot = true
	cfg.Transports = []string{"tor", "obfs4"}
	var buf bytes.Buffer
	r := New(cfg, &buf)
	if err := r.Run("fig2a"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "box plot") {
		t.Fatalf("plot output missing:\n%s", buf.String())
	}
}
