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

// goldenArgs is the full paper campaign every golden row runs.
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
}

// TestGoldenReports drives run exactly like the CLI and pins each row's
// artifact bytes, so byte identity holds across commits, not just
// between two runs of one build.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, g := range goldenReports {
		dir := t.TempDir()
		args := strings.Fields(g.args)
		for i, a := range args {
			if a == "D" {
				args[i] = dir
			}
		}
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d\nstderr: %s", g.args, code, errb.String())
		}
		got := out.Bytes()
		if g.artifact != "stdout" {
			b, err := os.ReadFile(filepath.Join(dir, g.artifact))
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
