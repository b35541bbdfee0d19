package simtest

import (
	"path/filepath"
	"strings"
	"testing"

	"ptperf/internal/censor"
)

// TestFuzzSmoke is the bounded in-tree torture run: a handful of
// randomized worlds through the full invariant suite. `ptperf fuzz`
// scales the same machinery to hundreds of worlds.
func TestFuzzSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-world test")
	}
	res := Fuzz(Config{N: 6, Seed: 2})
	if len(res.Failures) != 0 {
		for _, f := range res.Failures {
			t.Errorf("%s: %v", f.Spec.ID(), f.Err)
		}
	}
	if res.Worlds != 6 || res.Digest == "" {
		t.Fatalf("result incomplete: %+v", res)
	}
}

// TestFuzzDigestPinned pins the digest of CI fuzz-smoke's exact run
// (`ptperf fuzz -n 25 -seed 1`) across commits, as the golden reports
// pin the campaigns. Its fault-heavy worlds are where idle PT sessions
// get reaped, so a refactor of the servers that claims byte-identical
// results is checked here too. A change that alters results on purpose
// re-records the prefix (DESIGN.md "Golden reports").
func TestFuzzDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-world test")
	}
	const want = "588d5e3faa257951"
	res := Fuzz(Config{N: 25, Seed: 1})
	if len(res.Failures) != 0 {
		t.Fatalf("fuzz failures: %+v", res.Failures)
	}
	if !strings.HasPrefix(res.Digest, want) {
		t.Fatalf("digest %s, want prefix %s", res.Digest, want)
	}
}

// TestFuzzJobsEquivalence holds the fuzzer to the contract it enforces:
// the run digest — a hash over every world's canonical report — must be
// identical at any parallelism, and across repeated runs.
func TestFuzzJobsEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-world test")
	}
	seq := Fuzz(Config{N: 4, Seed: 3, Jobs: 1})
	par := Fuzz(Config{N: 4, Seed: 3, Jobs: 4})
	if seq.Digest != par.Digest {
		t.Fatalf("jobs=1 digest %s != jobs=4 digest %s", seq.Digest, par.Digest)
	}
	if len(seq.Failures)+len(par.Failures) != 0 {
		t.Fatalf("fuzz failures: %+v / %+v", seq.Failures, par.Failures)
	}
}

// TestInjectedFaultCaughtAndShrunk proves the suite catches a
// miscounting censor: a counter mutation behind the test hook must trip
// the censor-accounting invariant and shrink to a world of at most two
// transports and two scenario rules.
func TestInjectedFaultCaughtAndShrunk(t *testing.T) {
	censor.SetStatsFault(func(s *censor.Stats) { s.ThrottledSegments += 1 << 40 })
	defer censor.SetStatsFault(nil)

	spec := Generate(11, 0)
	err := Check(spec)
	if err == nil {
		t.Fatal("injected censor counter fault not caught")
	}
	if !strings.Contains(err.Error(), "censor-accounting") {
		t.Fatalf("fault caught by the wrong invariant: %v", err)
	}

	min, minErr, trials := Shrink(spec, 0)
	if minErr == nil {
		t.Fatal("shrunken world no longer fails")
	}
	if len(min.Transports) > 2 {
		t.Errorf("shrunken world keeps %d transports, want <= 2", len(min.Transports))
	}
	if len(min.Scenario.Events) > 2 {
		t.Errorf("shrunken world keeps %d rules, want <= 2", len(min.Scenario.Events))
	}
	if trials < 2 {
		t.Errorf("shrink ran only %d trials", trials)
	}
	// The minimal world's repro line must reproduce the failure.
	replay, err := ParseRepro(min.Repro())
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(replay); err == nil {
		t.Fatal("repro line of the shrunken world does not reproduce the failure")
	}
}

// TestCorpusSeeds replays every committed regression seed: worlds whose
// invariant violations were fixed must stay fixed. Runs under -race in
// CI.
func TestCorpusSeeds(t *testing.T) {
	specs, err := LoadCorpusFile(filepath.Join("testdata", "corpus", "seeds.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 5 {
		t.Fatalf("corpus holds %d seeds, want >= 5", len(specs))
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.ID(), func(t *testing.T) {
			if err := Check(spec); err != nil {
				t.Errorf("regression: %v", err)
			}
		})
	}
}
