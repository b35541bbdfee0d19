package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"
)

// goldenReports are the sha256 digests of the full report (`-exp all
// -sites 4 -repeats 1 -attempts 1 -sizes 5`) at two seeds. A change
// that alters results on purpose re-records them (DESIGN.md "Golden
// reports"); any other change must leave them byte-identical.
var goldenReports = map[int64]string{
	1: "40465be8974782c6f9346612deedfc860dde5498f0cc86641dab129e86324648",
	7: "91a87339c4f6254403890d2dcc36ed4cd10810742d8d74622613976e4bf0df79",
}

// TestGoldenReports drives run exactly like the CLI and pins each
// seed's report bytes, so byte identity holds across commits, not just
// between two runs of one build.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, seed := range []int64{1, 7} {
		var out, errb bytes.Buffer
		args := []string{"-exp", "all", "-sites", "4", "-repeats", "1", "-attempts", "1", "-sizes", "5",
			"-seed", strconv.FormatInt(seed, 10)}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("seed %d: exit %d\nstderr: %s", seed, code, errb.String())
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != goldenReports[seed] {
			t.Errorf("seed %d: report sha256 = %s, want %s", seed, got, goldenReports[seed])
		}
	}
}
