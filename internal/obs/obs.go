// Package obs is the campaign observability layer: it turns the counter
// surfaces the simulator already keeps — netem's link accounting,
// censor verdicts, the relay cell scheduler, client recovery — into
// deterministic per-virtual-second timelines, and exports them as
// Prometheus text exposition and a self-contained HTML report. On the
// same plumbing it provides content-addressed caching of world-cell
// results, so repeated campaigns recompute only cells whose inputs
// changed.
//
// A Recorder attaches to one world and samples on the world's own
// virtual clock: the sampler is a simulation goroutine waking every
// Interval of virtual time, so samples land at exact virtual instants,
// interleave deterministically with the campaign, and are byte-identical
// across runs and across -jobs values. Attaching a recorder does not
// change the world's results: the sampler wakes only on its own timer,
// reads counters and readies no other goroutine, so every other event
// keeps its order (the harness pins this with a metrics-on ≡
// metrics-off report test). The harness still folds the sampling
// interval into every cache digest, because an entry computed without
// a recorder stores no timeline for a sampled run to replay.
//
// Each sample stores interval deltas (via netem.AcctSnapshot.Sub), not
// cumulative values: deltas sum exactly back to the final snapshot,
// which is the timeline-conservation invariant the simulation-torture
// suite (internal/simtest) checks on every fuzzed world. Samples in
// which nothing moved are elided — virtual drains cost nothing to skip
// — and elision is value-driven, so it never breaks determinism.
package obs

import (
	"sync"
	"time"

	"ptperf/internal/censor"
	"ptperf/internal/netem"
	"ptperf/internal/testbed"
	"ptperf/internal/tor"
)

// DefaultInterval is the sampling cadence used when a caller enables
// metrics without choosing one: one virtual second, the resolution the
// paper's timeline figures use.
const DefaultInterval = time.Second

// Sources names the counter surfaces a Recorder samples. Clock and Acct
// are required; the rest are optional and sampled when non-nil. The
// closures are invoked from the sampler's simulation goroutine (the
// world is otherwise parked at that instant), so they may touch world
// state freely but must be deterministic.
type Sources struct {
	// Clock is the world's virtual clock; the sampler runs on it.
	Clock *netem.Clock
	// Acct is the world's link-layer accounting.
	Acct *netem.Acct
	// Censor reports the adversary's verdict counters.
	Censor func() censor.Stats
	// Relays lists the world's relays; re-queried every sample so
	// relays started mid-campaign (shared-hop guards, PT bridges)
	// appear from their first live interval.
	Relays func() []*tor.Relay
	// Recovery reports per-method client recovery counters; re-queried
	// every sample so lazily built deployments appear once built.
	Recovery func() []MethodRecovery
}

// MethodRecovery is one access method's cumulative recovery counters at
// a sample instant.
type MethodRecovery struct {
	Method string
	Stats  tor.RecoveryStats
}

// Recorder samples one world's counters into a Timeline. Create with
// Attach (or AttachWorld), stop with Close.
type Recorder struct {
	src      Sources
	interval time.Duration

	mu     sync.Mutex
	closed bool
	lastT  time.Duration
	prev   prevState
	tl     *Timeline
}

// prevState holds the previous sample's cumulative counters, the
// baseline the next sample's deltas subtract from.
type prevState struct {
	acct     netem.AcctSnapshot
	censor   censor.Stats
	relays   map[string]tor.SchedStats
	recovery map[string]tor.RecoveryStats
}

// Attach starts sampling src every interval of virtual time and returns
// the recorder. Call from the world's driver goroutine (it spawns the
// sampler via Clock.Go). interval <= 0 uses DefaultInterval.
func Attach(src Sources, interval time.Duration) *Recorder {
	if interval <= 0 {
		interval = DefaultInterval
	}
	r := &Recorder{
		src:      src,
		interval: interval,
		lastT:    -1,
		prev: prevState{
			relays:   make(map[string]tor.SchedStats),
			recovery: make(map[string]tor.RecoveryStats),
		},
		tl: &Timeline{Interval: interval},
	}
	src.Clock.Go(r.loop)
	return r
}

// AttachWorld wires a Recorder to a testbed world's standard surfaces:
// link accounting, the censor (when attached), every relay ever started
// (re-queried per sample), and each built deployment's recovery
// counters.
func AttachWorld(w *testbed.World, interval time.Duration) *Recorder {
	src := Sources{
		Clock:  w.Net.Clock(),
		Acct:   w.Net.Acct(),
		Relays: w.Relays,
		Recovery: func() []MethodRecovery {
			deps := w.BuiltDeployments()
			out := make([]MethodRecovery, 0, len(deps))
			for _, d := range deps {
				out = append(out, MethodRecovery{Method: d.Name, Stats: d.Recovery()})
			}
			return out
		},
	}
	if w.Censor != nil {
		src.Censor = w.Censor.Stats
	}
	return Attach(src, interval)
}

// loop is the sampler: a simulation goroutine waking every interval of
// virtual time. After Close it exits on its next wake; a world that is
// simply abandoned leaves it parked on a timer, which is harmless.
func (r *Recorder) loop() {
	for {
		r.src.Clock.Sleep(r.interval)
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		r.sampleLocked()
		r.mu.Unlock()
	}
}

// Close takes a final sample at the current virtual instant (unless one
// was already taken there), stops the sampler, and returns the finished
// timeline. Call from the world's driver at a quiescent point; after
// Close the timeline is immutable.
func (r *Recorder) Close() *Timeline {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.sampleLocked()
		r.closed = true
		r.tl.Final = r.prev.acct
	}
	return r.tl
}

// sampleLocked appends one sample of interval deltas at the current
// virtual instant. Samples in which no counter moved are elided, but
// the baselines still advance, so elision never loses a delta.
func (r *Recorder) sampleLocked() {
	now := r.src.Clock.Now()
	if now == r.lastT {
		return
	}
	r.lastT = now

	s := Sample{T: now}
	acct := r.src.Acct.Snapshot()
	var reg int
	s.Acct, reg = acct.Sub(r.prev.acct)
	r.tl.Regressions += reg
	// A zero delta with an unchanged gauge is an uneventful interval.
	interesting := s.Acct != (netem.AcctSnapshot{BytesBuffered: r.prev.acct.BytesBuffered})
	r.prev.acct = acct

	if r.src.Censor != nil {
		cur := r.src.Censor()
		s.Censor = censor.Stats{
			BlockedDials:      clampInt(cur.BlockedDials-r.prev.censor.BlockedDials, &r.tl.Regressions),
			FlowsCut:          clampInt(cur.FlowsCut-r.prev.censor.FlowsCut, &r.tl.Regressions),
			Resets:            clampInt(cur.Resets-r.prev.censor.Resets, &r.tl.Regressions),
			LossEvents:        clampInt(cur.LossEvents-r.prev.censor.LossEvents, &r.tl.Regressions),
			ThrottledSegments: clampInt(cur.ThrottledSegments-r.prev.censor.ThrottledSegments, &r.tl.Regressions),
		}
		if s.Censor != (censor.Stats{}) {
			interesting = true
		}
		r.prev.censor = cur
	}

	if r.src.Relays != nil {
		for _, relay := range r.src.Relays() {
			name := relay.Name()
			cur := relay.SchedStats()
			old := r.prev.relays[name]
			p := RelayPoint{
				Relay:   name,
				Pending: cur.Pending,
				Queued:  clamp64(cur.Queued-old.Queued, &r.tl.Regressions),
				Flushed: clamp64(cur.Flushed-old.Flushed, &r.tl.Regressions),
				Dropped: clamp64(cur.Dropped-old.Dropped, &r.tl.Regressions),
				Delay:   time.Duration(clamp64(int64(cur.DelaySum-old.DelaySum), &r.tl.Regressions)),
			}
			r.prev.relays[name] = cur
			// A relay with no queue movement and an empty queue
			// contributes nothing to any series.
			if p.Pending != 0 || p.Queued != 0 || p.Flushed != 0 || p.Dropped != 0 || p.Delay != 0 {
				s.Relays = append(s.Relays, p)
				interesting = true
			}
		}
	}

	if r.src.Recovery != nil {
		for _, mr := range r.src.Recovery() {
			old := r.prev.recovery[mr.Method]
			cur := mr.Stats
			p := RecoveryPoint{
				Method:          mr.Method,
				Rebuilds:        clamp64(cur.Rebuilds-old.Rebuilds, &r.tl.Regressions),
				BuildTimeouts:   clamp64(cur.BuildTimeouts-old.BuildTimeouts, &r.tl.Regressions),
				StreamFailures:  clamp64(cur.StreamFailures-old.StreamFailures, &r.tl.Regressions),
				ReAttaches:      clamp64(cur.ReAttaches-old.ReAttaches, &r.tl.Regressions),
				Abandoned:       clamp64(cur.Abandoned-old.Abandoned, &r.tl.Regressions),
				GuardProbations: clamp64(cur.GuardProbations-old.GuardProbations, &r.tl.Regressions),
			}
			r.prev.recovery[mr.Method] = cur
			if p != (RecoveryPoint{Method: mr.Method}) {
				s.Recovery = append(s.Recovery, p)
				interesting = true
			}
		}
	}

	if interesting {
		r.tl.Samples = append(r.tl.Samples, s)
	}
}

// clampInt clamps a negative int delta to zero, counting the regression.
func clampInt(d int, regressions *int) int {
	if d < 0 {
		*regressions++
		return 0
	}
	return d
}

// clamp64 clamps a negative int64 delta to zero, counting the
// regression.
func clamp64(d int64, regressions *int) int64 {
	if d < 0 {
		*regressions++
		return 0
	}
	return d
}
