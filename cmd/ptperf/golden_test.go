package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenArgs is the full paper campaign of the "all" rows.
const goldenArgs = "-exp all -sites 4 -repeats 1 -attempts 1 -sizes 5"

// goldenReports is the golden manifest: one row per pinned artifact,
// giving the CLI args, the artifact ("stdout" for the report, else a
// file the run writes under the -metrics-dir D placeholder) and its
// sha256. A change that alters results on purpose re-records them
// (DESIGN.md "Golden reports"); any other change must leave them
// byte-identical.
var goldenReports = []struct {
	args, artifact, sha256 string
}{
	{goldenArgs + " -seed 1", "stdout", "40465be8974782c6f9346612deedfc860dde5498f0cc86641dab129e86324648"},
	{goldenArgs + " -seed 7", "stdout", "91a87339c4f6254403890d2dcc36ed4cd10810742d8d74622613976e4bf0df79"},
	// -jobs 1 runs every cell in turn: the report must not move.
	{goldenArgs + " -seed 1 -jobs 1", "stdout", "40465be8974782c6f9346612deedfc860dde5498f0cc86641dab129e86324648"},
	// The Prometheus dump names every cell key of "all" in its cell=
	// labels, so this row pins the keys as well as the timelines.
	{goldenArgs + " -seed 1 -metrics-dir D", "metrics.prom", "6b4949b4817588ed6f7fff579b7c4e49c460fe8809cf251fb0e3cd0777423ed6"},
	// The optional experiments, which "all" leaves out. sweep's stdout
	// and its HTML report come from one run; the missing history file
	// drops the report's perf-trajectory section wherever it runs.
	{optionalArgs + " -exp sweep -report D/report.html -bench-history D/none.jsonl", "stdout", "9e60ad5741a4308b49af9dbd390b7931140bb94ee67a6019f5739317a9515e8e"},
	{optionalArgs + " -exp sweep -report D/report.html -bench-history D/none.jsonl", "report.html", "4db64317187ae681ce8e9d0394b3ae7daafc16fb6a7c62a551b696cff7809155"},
	{optionalArgs + " -exp contention", "stdout", "b34a3d33dca95b3317325e95992124636f83206ac60a723a1a8cb60f4ed4c6b8"},
	{optionalArgs + " -exp medium", "stdout", "47d3377b7714f8f96cbf3a36cc0048c9e8124bce88fcb9a0a4714a1cbdbc7ff2"},
	{optionalArgs + " -exp fig7", "stdout", "39c15d1a159ead308b91cc4aef9599ecd73acb17a34ee67e56fc388904b06c2b"},
	{optionalArgs + " -exp scenario:bridge-block", "stdout", "3a6673499ca8de69a69b638323591cff30dfc38d2ad12def840dd4f98f65ba11"},
	{optionalArgs + " -exp fig5 -sizes 5,10", "stdout", "01db6f7bea72e8adc4c3602ee2006f558fe996bf0dbc8fdf3eba0340d48e0b58"},
	{optionalArgs + " -exp fig8 -sizes 5,10", "stdout", "ca9644e6d9289853736e500f5b22e6dc7f08ed1218645265502702532c3c61e3"},
	// churn downloads 50 MB files; a smaller byte scale keeps the row
	// near one second.
	{optionalArgs + " -exp churn -bytescale 0.02", "stdout", "63d00545f6f138c8fa7f74ed7c2a622f7968347f973a075c580e807072ebeea0"},
}

// optionalArgs is the campaign size of the optional-experiment rows.
const optionalArgs = "-sites 4 -repeats 1 -attempts 1 -seed 1"

// TestGoldenReports drives run exactly like the CLI and pins each row's
// artifact bytes, so byte identity holds across commits, not just
// between two runs of one build.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	// Rows with the same args share one run and its directory.
	type runOut struct {
		dir    string
		stdout []byte
	}
	runs := map[string]runOut{}
	for _, g := range goldenReports {
		r, ok := runs[g.args]
		if !ok {
			r.dir = t.TempDir()
			args := strings.Fields(g.args)
			for i, a := range args {
				if a == "D" || strings.HasPrefix(a, "D/") {
					args[i] = r.dir + a[1:]
				}
			}
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("%s: exit %d\nstderr: %s", g.args, code, errb.String())
			}
			r.stdout = out.Bytes()
			runs[g.args] = r
		}
		got := r.stdout
		if g.artifact != "stdout" {
			b, err := os.ReadFile(filepath.Join(r.dir, g.artifact))
			if err != nil {
				t.Fatalf("%s: %v", g.args, err)
			}
			got = b
		}
		if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != g.sha256 {
			t.Errorf("%s: %s sha256 = %x, want %s", g.args, g.artifact, sum, g.sha256)
		}
	}
}
