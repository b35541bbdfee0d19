package harness

import (
	"fmt"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/pt"
	"ptperf/internal/testbed"
)

// accessData holds one method's aligned per-site measurements: index i
// of every slice refers to the same site, which is what makes paired
// t-tests across methods valid.
type accessData struct {
	// Times are per-site mean access times (seconds).
	Times []float64
	// TTFBs are per-site mean times to first byte (seconds).
	TTFBs []float64
	// SpeedIndexes are per-site mean speed indexes (seconds; selenium
	// campaigns only).
	SpeedIndexes []float64
}

// pageTimeout mirrors the paper's 120 s page timeout.
const pageTimeout = 120 * time.Second

// fileTimeout mirrors the paper's 1200 s bulk timeout.
const fileTimeout = 1200 * time.Second

// The three paper campaigns build their world on streamCampaign, so
// curl, selenium and bulk downloads measure the same topology, relay
// draws and catalogs — they only differ in what the client does,
// exactly like the paper's campaigns running on one deployment.

// curlCell is the curl website-access campaign: every configured method
// over Tranco+CBL.
var curlCell = accessCell("curl", func(c Config) []string { return c.Transports },
	func(w *testbed.World, d *testbed.Deployment, site string) (float64, float64, float64) {
		c := &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: pageTimeout}
		res := c.Get(w.Origin.Addr(), site, false)
		return seconds(res.Total), seconds(res.TTFB), 0
	})

// seleniumMethods filters the configured transports down to the
// browser-capable subset: transports that cannot serve parallel streams
// (camoufler, §4.2) are excluded. Table 1's selenium and speed-index
// counts use the same subset.
func seleniumMethods(c Config) []string {
	methods := make([]string, 0, len(c.Transports))
	for _, m := range c.Transports {
		if info, ok := pt.InfoFor(m); ok && !info.ParallelStreams {
			continue
		}
		methods = append(methods, m)
	}
	return methods
}

// seleniumCell is the browser campaign over the browser-capable methods.
var seleniumCell = accessCell("selenium", seleniumMethods,
	func(w *testbed.World, d *testbed.Deployment, site string) (float64, float64, float64) {
		c := &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: pageTimeout}
		pr := c.Browse(w.Origin.Addr(), site, fetch.DefaultBrowserConns)
		if !pr.OK {
			// Incomplete page loads count as the timeout, as selenium
			// reports them; a dead circuit is rebuilt for the next run.
			d.FreshCircuit()
			return pageTimeout.Seconds(), seconds(pr.TTFB), pageTimeout.Seconds()
		}
		return seconds(pr.PageLoadTime), seconds(pr.TTFB), seconds(pr.SpeedIndex)
	})

// accessFunc measures one access to site, returning its total time,
// time to first byte and speed index in seconds.
type accessFunc func(w *testbed.World, d *testbed.Deployment, site string) (total, ttfb, speedIndex float64)

// accessCell declares one access-campaign cell over the given methods.
func accessCell(kind string, methods func(Config) []string, measure accessFunc) *cell[map[string]*accessData] {
	return &cell[map[string]*accessData]{
		key:    "access:" + kind,
		stream: []int64{streamCampaign},
		knobs:  func(c Config) string { return fmt.Sprintf("methods=%v repeats=%d", methods(c), c.Repeats) },
		measure: func(r *Runner, w *testbed.World) (map[string]*accessData, error) {
			return r.measureAccess(w, methods(r.cfg), measure)
		},
	}
}

// measureAccess runs one access campaign over an already-built world.
func (r *Runner) measureAccess(w *testbed.World, methods []string, measure accessFunc) (map[string]*accessData, error) {
	sites := r.sites(w, 2*r.cfg.Sites)
	return forEachMethod(r, w, methods, methodsInFlight, func(name string) (*accessData, error) {
		d, err := w.Deployment(name)
		if err != nil {
			return nil, err
		}
		if err := d.Preheat(); err != nil {
			return nil, fmt.Errorf("preheat: %w", err)
		}
		data := &accessData{}
		for si, site := range sites {
			// MaxCircuitDirtiness analog: rotate circuits every few
			// sites, as a real client browsing this long would.
			if si > 0 && si%8 == 0 {
				d.FreshCircuit()
				if err := d.Preheat(); err != nil {
					return nil, fmt.Errorf("circuit rotation: %w", err)
				}
			}
			var tSum, fSum, sSum float64
			for rep := 0; rep < r.cfg.Repeats; rep++ {
				total, ttfb, speed := measure(w, d, site)
				tSum += total
				fSum += ttfb
				sSum += speed
			}
			n := float64(r.cfg.Repeats)
			data.Times = append(data.Times, tSum/n)
			data.TTFBs = append(data.TTFBs, fSum/n)
			data.SpeedIndexes = append(data.SpeedIndexes, sSum/n)
		}
		// Park the transport when its campaign ends: polling tunnels
		// (dnstt, meek, camoufler) otherwise keep generating events
		// through every virtual second of the remaining methods'
		// campaigns, which dominates scheduler load.
		d.FreshCircuit()
		return data, nil
	})
}

// fileAttempt is one bulk-download attempt.
type fileAttempt struct {
	// SizeBytes is the requested (scaled) file size.
	SizeBytes int
	// SizeMB is the paper-scale label (5/10/20/50/100).
	SizeMB int
	// Seconds is the attempt duration.
	Seconds float64
	// Fraction is the share of the file received.
	Fraction float64
	// Complete / Failed classify the attempt (else partial).
	Complete, Failed bool
}

// fileData holds one method's download attempts.
type fileData struct {
	Name     string
	Attempts []fileAttempt
}

// meanTime returns the mean duration of complete downloads of one size,
// and how many attempts completed.
func (fd *fileData) meanTime(sizeMB int) (float64, int) {
	var sum float64
	n := 0
	for _, a := range fd.Attempts {
		if a.SizeMB == sizeMB && a.Complete {
			sum += a.Seconds
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// counts returns (complete, partial, failed) attempt counts.
func (fd *fileData) counts() (int, int, int) {
	var c, p, f int
	for _, a := range fd.Attempts {
		switch {
		case a.Complete:
			c++
		case a.Failed:
			f++
		default:
			p++
		}
	}
	return c, p, f
}

// fractions lists per-attempt downloaded fractions.
func (fd *fileData) fractions() []float64 {
	out := make([]float64, 0, len(fd.Attempts))
	for _, a := range fd.Attempts {
		out = append(out, a.Fraction)
	}
	return out
}

// filesCell is the bulk-download campaign.
var filesCell = &cell[map[string]*fileData]{
	key:    "files",
	stream: []int64{streamCampaign},
	knobs: func(c Config) string {
		return fmt.Sprintf("methods=%v sizes=%v attempts=%d", c.Transports, c.FileSizesMB, c.FileAttempts)
	},
	measure: measureFiles,
}

// measureFiles downloads every configured file size FileAttempts times
// per method, one method at a time.
func measureFiles(r *Runner, w *testbed.World) (map[string]*fileData, error) {
	return forEachMethod(r, w, r.cfg.Transports, 1, func(name string) (*fileData, error) {
		d, err := w.Deployment(name)
		if err != nil {
			return nil, err
		}
		if err := d.Preheat(); err != nil {
			return nil, err
		}
		c := &fetch.Client{Net: w.Net, Dial: d.Dial, Timeout: fileTimeout}
		data := &fileData{Name: name}
		for _, mb := range r.cfg.FileSizesMB {
			size := w.Bytes(mb << 20)
			for attempt := 0; attempt < r.cfg.FileAttempts; attempt++ {
				res := c.DownloadFile(w.Origin.Addr(), size)
				data.Attempts = append(data.Attempts, fileAttempt{
					SizeBytes: size,
					SizeMB:    mb,
					Seconds:   seconds(res.Total),
					Fraction:  res.Fraction(),
					Complete:  res.Complete(),
					Failed:    res.Failed(),
				})
				// A broken circuit (snowflake churn, meek budget) must
				// not poison subsequent attempts.
				if !res.Complete() {
					d.FreshCircuit()
					if err := d.Preheat(); err != nil {
						// The transport may be temporarily out of
						// capacity; subsequent dials retry anyway.
						continue
					}
				}
			}
		}
		// Park the transport's tunnels (see measureAccess).
		d.FreshCircuit()
		return data, nil
	})
}
