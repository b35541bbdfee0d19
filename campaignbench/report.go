package main

import (
	"sort"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/stats"
	"ptperf/internal/tor"
)

// quantile is stats.Quantile, with 0 for an empty sample: a method or
// span kind the workload does not run (JSON has no NaN).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// campaignS is host time from the world build to the last access.
func (r *worldResult) campaignS() float64 {
	last := r.Spans[r.Accesses[len(r.Accesses)-1].Span]
	return time.Duration(last.HostEnd - r.Spans[0].HostStart).Seconds()
}

// setupS is host time spent in set-up calls: the world build, each
// method's deployment and first circuit, and the contention rig.
func (r *worldResult) setupS() float64 {
	var t time.Duration
	for i := range r.Spans {
		if r.Spans[i].Setup {
			t += r.Spans[i].host()
		}
	}
	return t.Seconds()
}

// measuredS is host time in the measured phase: for each method, from
// its first access's start to its last access's end.
func (r *worldResult) measuredS() float64 {
	var t int64
	var method string
	var start, end int64
	for _, a := range r.Accesses {
		s := &r.Spans[a.Span]
		if a.Method != method {
			t += end - start
			method, start = a.Method, s.HostStart
		}
		end = s.HostEnd
	}
	t += end - start
	return time.Duration(t).Seconds()
}

// endToEndValues reduces untraced passes (passes[p][k] is world k of
// pass p) to the end-to-end metrics. For each world it keeps the
// campaign with the median campaign_s, so a burst of load from outside
// that slows one campaign does not reach the figures; setup_s and
// max_rss_mb take each world's median over its campaigns. The workload's figures add the
// worlds up, and access percentiles pool the kept campaigns' accesses.
func endToEndValues(passes [][]*worldResult) map[string]float64 {
	var setup, camp, measured, alloc, rss float64
	var accessMs []float64
	var accesses, complete int
	for k := range passes[0] {
		var runs []*worldResult
		var setups, rssMB []float64
		for _, pass := range passes {
			runs = append(runs, pass[k])
			setups = append(setups, pass[k].setupS())
			rssMB = append(rssMB, float64(pass[k].MaxRSSKB)/1024)
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].campaignS() < runs[j].campaignS() })
		w := runs[(len(runs)-1)/2]
		setup += median(setups)
		camp += w.campaignS()
		measured += w.measuredS()
		alloc += float64(w.AllocBytes) / (1 << 20)
		rss = max(rss, median(rssMB))
		for _, a := range w.Accesses {
			accessMs = append(accessMs, ms(w.Spans[a.Span].host()))
			accesses++
			if a.Complete {
				complete++
			}
		}
	}
	return map[string]float64{
		"setup_s":       setup,
		"campaign_s":    camp,
		"access_per_s":  float64(accesses) / measured,
		"access_ms_p50": quantile(accessMs, 0.5),
		"access_ms_p90": quantile(accessMs, 0.9),
		"alloc_mb":      alloc,
		"max_rss_mb":    rss,
		"ok_ratio":      float64(complete) / float64(accesses),
	}
}

// layerValues computes the per-layer metrics of one traced pass, its
// worlds pooled: counts add up, ratios divide the sums, percentiles
// pool the spans.
func layerValues(pass []*worldResult) map[string]float64 {
	var hostNs, virtualS float64
	var acct netem.AcctSnapshot
	var mallocs, allocBytes uint64
	var gcs uint32
	var rec tor.RecoveryStats
	var sched tor.SchedStats
	hostMs := map[string]float64{}
	var preMs, preVs, accessVs []float64
	methodMs := map[string][]float64{}
	methodSegs := map[string]int64{}
	var gmax, accesses int
	var bytesGot int64
	for _, w := range pass {
		root := &w.Spans[0]
		hostNs += float64(root.host())
		virtualS += root.virtual().Seconds()
		acct = acct.Add(root.Acct)
		mallocs += root.Mallocs
		allocBytes += root.AllocBytes
		gcs += root.GCs
		rec = rec.Add(w.Recovery)
		sched.Passes += w.Sched.Passes
		sched.Flushed += w.Sched.Flushed
		sched.DelaySum += w.Sched.DelaySum
		for i := range w.Spans {
			s := &w.Spans[i]
			hostMs[s.Name] += ms(s.host())
			if s.Name == "tor.Preheat" {
				preMs = append(preMs, ms(s.host()))
				preVs = append(preVs, s.virtual().Seconds())
			}
		}
		for _, a := range w.Accesses {
			s := &w.Spans[a.Span]
			accesses++
			accessVs = append(accessVs, a.Virtual.Seconds())
			bytesGot += a.Bytes
			gmax = max(gmax, s.Goroutines)
			methodMs[a.Method] = append(methodMs[a.Method], ms(s.host()))
			methodSegs[a.Method] += s.Acct.SegmentsSent
		}
	}
	per := func(x float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	L := map[string]float64{
		"testbed.world_ms":                hostMs["testbed.New"],
		"testbed.deploy_ms":               hostMs["testbed.World.Deployment"] + hostMs["testbed.FixedCircuitRig.Clients"],
		"testbed.rig_ms":                  hostMs["testbed.World.NewContentionRig"],
		"tor.preheat_ms_p50":              quantile(preMs, 0.5),
		"tor.preheat_ms_p90":              quantile(preMs, 0.9),
		"tor.preheats":                    float64(len(preMs)),
		"tor.preheat_vs_p50":              quantile(preVs, 0.5),
		"tor.cells_queued":                float64(acct.CellsQueued),
		"tor.cells_flushed":               float64(acct.CellsFlushed),
		"tor.cells_dropped":               float64(acct.CellsDropped),
		"tor.host_ns_per_cell":            per(hostNs, acct.CellsQueued),
		"tor.sched_passes":                float64(sched.Passes),
		"tor.sched_delay_ms":              per(ms(sched.DelaySum), sched.Flushed),
		"tor.rebuilds":                    float64(rec.Rebuilds),
		"tor.stream_failures":             float64(rec.StreamFailures),
		"netem.segments":                  float64(acct.SegmentsSent),
		"netem.bytes_delivered":           float64(acct.BytesDelivered),
		"netem.host_ns_per_segment":       per(hostNs, acct.SegmentsSent),
		"netem.dials":                     float64(acct.Dials),
		"netem.dials_refused":             float64(acct.DialsRefused),
		"netem.conns_opened":              float64(acct.ConnsOpened),
		"netem.goroutines_max":            float64(gmax),
		"netem.virtual_s":                 virtualS,
		"netem.host_ns_per_vsec":          hostNs / virtualS,
		"fetch.access_vs_p50":             quantile(accessVs, 0.5),
		"fetch.bytes_got":                 float64(bytesGot),
		"runtime.mallocs_per_access":      per(float64(mallocs), int64(accesses)),
		"runtime.alloc_bytes_per_segment": per(float64(allocBytes), acct.SegmentsSent),
		"runtime.gc_cycles":               float64(gcs),
	}
	for _, m := range catalogMethods() {
		L["pt."+m+".access_ms_p50"] = quantile(methodMs[m], 0.5)
		L["pt."+m+".segments_per_access"] = per(float64(methodSegs[m]), int64(len(methodMs[m])))
	}
	return L
}
