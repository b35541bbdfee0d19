// Command campaignbench is the repository's end-to-end benchmark. It
// drives the simulator the way a measurement campaign does — it builds
// a world with testbed and times calls into testbed, tor and fetch from
// outside — and reports host-time costs by name and unit, plus
// per-layer counters from a traced run.
//
// Usage (from the repository root, see run.sh):
//
//	campaignbench --workload curl-web --seed 1 --seconds 20 --trace 0
//
// A pass of a workload runs its campaign on a fixed number of worlds,
// each built from its own seed derived from --seed, one fresh process
// per world. A run makes at least minPasses passes, and more while they
// fit in --seconds; each world contributes its median campaign, and the
// workload's figures add the worlds up. Every campaign of one world
// must produce the same outcome digest, traced or not, and
// digests.json pins the run digest of a few seeds. With --trace 1 the
// run alternates untraced and traced passes and reports the per-layer
// metrics of the first traced pass and the tracing overhead. The last
// line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ptperf/internal/sim"
)

// runTimeout bounds a whole run, campaigns included.
const runTimeout = 170 * time.Second

// minPasses is the fewest passes a run makes: every world runs three
// times (a traced run: twice untraced, once traced), so a median
// campaign exists.
const minPasses = 3

// traceDir receives the spans of a traced pass, relative to the
// working directory.
const traceDir = ".bench_build/traces"

//go:embed digests.json
var digestsJSON []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: curl-web, browser-web, bulk-download or guard-contention")
	seed := fs.Int64("seed", 1, "run seed; world k of a pass is built from sim.DeriveSeed(seed, k)")
	seconds := fs.Int("seconds", 10, "make more than three passes only while they fit in this many seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced pass")
	child := fs.Bool("child", false, "run one campaign on the world built from -seed and print its result as JSON (used by the run itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(stderr, "campaignbench: bad arguments (workload %q, trace %d, seconds %d)\n", *name, *trace, *seconds)
		return 2
	}
	if *child {
		return runChild(wl, *seed, *trace == 1, stdout, stderr)
	}
	return runParent(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout, stderr)
}

// campaignProcs is the GOMAXPROCS of a campaign process: its world runs
// on one core, as each world does when ptperf -jobs keeps every core
// busy with a world of its own.
const campaignProcs = 1

// runChild runs one campaign in this process.
func runChild(wl workload, seed int64, traced bool, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(campaignProcs)
	res, err := runCampaign(wl, seed, traced)
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 1
	}
	return 0
}

// spawn runs one campaign in a child process and decodes its result.
func spawn(ctx context.Context, exe string, wl workload, seed int64, traced bool) (*worldResult, error) {
	args := []string{"-child", "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("campaign process for world seed %d: %w", seed, err)
	}
	var res worldResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("campaign result for world seed %d: %w", seed, err)
	}
	return &res, nil
}

// runParent measures the workload for the given duration.
func runParent(wl workload, seed int64, seconds time.Duration, traced bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	// Whole passes, at least minPasses, and another only while it
	// should end within the run's time.
	start := now()
	var plain, withTrace [][]*worldResult
	for p := 0; ; p++ {
		passStart := now()
		t := traced && p%2 == 1
		pass := make([]*worldResult, wl.worlds)
		for k := range pass {
			if pass[k], err = spawn(ctx, exe, wl, sim.DeriveSeed(seed, int64(k)), t); err != nil {
				fmt.Fprintf(stderr, "campaignbench: %s seed %d: %v\n", wl.name, seed, err)
				return 1
			}
		}
		if t {
			withTrace = append(withTrace, pass)
		} else {
			plain = append(plain, pass)
		}
		if p+1 >= minPasses && now().Sub(start)+now().Sub(passStart) > seconds {
			break
		}
	}

	digest := runDigest(plain[0])
	problems, failed, attempted := verify(append(append([][]*worldResult(nil), plain...), withTrace...))
	if want := recordedDigest(wl.name, seed); want != "" && want != digest {
		problems = append(problems, fmt.Sprintf("run digest %s, recorded %s", digest, want))
		failed = attempted
	}

	fmt.Fprintf(stdout, "campaignbench workload=%s seed=%d seconds=%d trace=%t worlds=%d passes=%d traced_passes=%d GOMAXPROCS=%d (campaign processes; parent %d) nproc=%d go=%s\n",
		wl.name, seed, int(seconds/time.Second), traced, wl.worlds, len(plain)+len(withTrace), len(withTrace),
		campaignProcs, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(stdout, "digest %s (%s)\n", digest, recordedNote(wl.name, seed, digest))
	for _, p := range problems {
		fmt.Fprintf(stdout, "INCORRECT: %s\n", p)
	}

	var values map[string]float64
	var specs []metricSpec
	if traced {
		specs = perLayerMetrics()
		values = layerValues(withTrace[0])
		base := endToEndValues(plain)["campaign_s"]
		overhead := endToEndValues(withTrace[:1])["campaign_s"] - base
		values["trace.overhead_s"] = overhead
		out, err := writeSpans(wl.name, seed, withTrace[0])
		if err != nil {
			fmt.Fprintf(stderr, "campaignbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "traced digest %s, untraced %s; tracing overhead %.4f s on %.4f s untraced campaign_s; spans in %s\n",
			runDigest(withTrace[0]), digest, overhead, base, out)
		writeTable(stdout, spanTable(withTrace[0]))
	} else {
		specs = endToEndMetrics
		values = endToEndValues(plain)
		fmt.Fprintf(stdout, "access host-time samples: %d (one campaign per world, of %d passes)\n",
			attempted/len(plain), len(plain))
	}
	metrics := map[string]any{}
	for _, m := range specs {
		v := values[m.name]
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", m.name, v, m.unit)
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(problems) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(problems) > 0 {
		return 1
	}
	return 0
}

// runDigest combines one pass's world digests, in world order.
func runDigest(pass []*worldResult) string {
	h := sha256.New()
	for _, w := range pass {
		fmt.Fprintln(h, w.Digest)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// verify checks every campaign of the run: the conservation checks
// each reported, and one digest per world across all passes, traced or
// not. A campaign that fails a check counts all its accesses as failed.
func verify(passes [][]*worldResult) (problems []string, failed, attempted int) {
	for _, pass := range passes {
		for k, w := range pass {
			attempted += len(w.Accesses)
			bad := false
			for _, p := range w.Problems {
				problems = append(problems, fmt.Sprintf("world %d (seed %d): %s", k, w.Seed, p))
				bad = true
			}
			if want := passes[0][k].Digest; w.Digest != want {
				problems = append(problems, fmt.Sprintf("world %d (seed %d): digest %s, first campaign %s", k, w.Seed, w.Digest, want))
				bad = true
			}
			if bad {
				failed += len(w.Accesses)
			}
		}
	}
	return problems, failed, attempted
}

func recordedDigest(workload string, seed int64) string {
	var table map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &table); err != nil {
		panic(fmt.Sprintf("campaignbench: digests.json: %v", err))
	}
	return table[workload][strconv.FormatInt(seed, 10)]
}

func recordedNote(workload string, seed int64, got string) string {
	switch want := recordedDigest(workload, seed); {
	case want == "":
		return "no digest recorded for this seed; each world checked equal across the run's campaigns"
	case want == got:
		return "matches the recorded digest"
	default:
		return "recorded " + want
	}
}

// writeSpans writes a traced pass's spans, world by world.
func writeSpans(workload string, seed int64, pass []*worldResult) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	type world struct {
		Seed  int64  `json:"seed"`
		Spans []span `json:"spans"`
	}
	var out []world
	for _, w := range pass {
		out = append(out, world{w.Seed, w.Spans})
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, raw, 0o644)
}

func writeTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-36s %7s %12s %12s %12s %12s %12s\n", "span", "calls", "host_ms", "self_ms", "virtual_s", "segments", "mallocs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %7d %12.3f %12.3f %12.3f %12d %12d\n", r.Name, r.Calls, r.HostMs, r.SelfMs, r.VirtualS, r.Segments, r.Mallocs)
	}
}
