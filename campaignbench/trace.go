package main

import (
	"runtime"
	"time"

	"ptperf/internal/netem"
)

// now is the benchmark's only wall-clock read. Host time is what the
// benchmark measures; it never flows into the simulation.
func now() time.Time {
	//simlint:allow wallclock -- the benchmark measures host time around calls into the simulator; no simulated value reads it.
	return time.Now()
}

// span is one timed call into a layer's public API. Host times are
// nanoseconds since the campaign started; virtual times are the world
// clock's offsets. Acct, Mallocs, AllocBytes and Goroutines are filled
// only by a traced campaign.
type span struct {
	Name   string `json:"name"`
	Method string `json:"method,omitempty"`
	Parent int    `json:"parent"`
	// Access numbers the measured accesses from 0; -1 marks a span
	// that is not an access.
	Access     int                `json:"access"`
	Setup      bool               `json:"setup,omitempty"`
	HostStart  int64              `json:"host_start_ns"`
	HostEnd    int64              `json:"host_end_ns"`
	VStart     time.Duration      `json:"virtual_start_ns"`
	VEnd       time.Duration      `json:"virtual_end_ns"`
	Acct       netem.AcctSnapshot `json:"acct_delta"`
	Mallocs    uint64             `json:"mallocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	GCs        uint32             `json:"gc_cycles"`
	// Goroutines is the larger Clock.Registered() reading of the two
	// boundaries.
	Goroutines int `json:"sim_goroutines"`
}

// openSpan is a started span's index plus its counters at begin.
type openSpan struct {
	i     int
	acct0 netem.AcctSnapshot
	mem0  memCounters
	live0 int
}

// memCounters are the runtime.MemStats fields the spans difference.
type memCounters struct {
	mallocs, alloc uint64
	gcs            uint32
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.Mallocs, m.TotalAlloc, m.NumGC}
}

func (s *span) host() time.Duration    { return time.Duration(s.HostEnd - s.HostStart) }
func (s *span) virtual() time.Duration { return s.VEnd - s.VStart }

// tracer records spans in memory. Untraced campaigns record only host
// and virtual times (what the end-to-end metrics need); traced ones
// also take an Acct snapshot and a MemStats reading at each boundary.
type tracer struct {
	traced bool
	start  time.Time
	net    *netem.Network // nil until the world exists
	spans  []span
	open   []openSpan // innermost last
}

func newTracer(traced bool) *tracer { return &tracer{traced: traced, start: now()} }

func (t *tracer) vnow() time.Duration {
	if t.net == nil {
		return 0
	}
	return t.net.Clock().Now()
}

// begin opens a span under the innermost open one and returns its
// index for end.
func (t *tracer) begin(name, method string, access int, setup bool) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].i
	}
	o := openSpan{i: len(t.spans)}
	if t.traced {
		if t.net != nil {
			o.acct0 = t.net.Acct().Snapshot()
			o.live0 = t.net.Clock().Registered()
		}
		o.mem0 = readMem()
	}
	t.open = append(t.open, o)
	t.spans = append(t.spans, span{Name: name, Method: method, Parent: parent, Access: access, Setup: setup,
		VStart: t.vnow(), HostStart: int64(now().Sub(t.start))})
	return o.i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	host := int64(now().Sub(t.start))
	o := t.open[len(t.open)-1]
	if o.i != i {
		panic("campaignbench: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.HostEnd = host
	s.VEnd = t.vnow()
	if !t.traced {
		return
	}
	if t.net != nil {
		s.Acct, _ = t.net.Acct().Snapshot().Sub(o.acct0)
		s.Goroutines = max(o.live0, t.net.Clock().Registered())
	}
	m := readMem()
	s.Mallocs = m.mallocs - o.mem0.mallocs
	s.AllocBytes = m.alloc - o.mem0.alloc
	s.GCs = m.gcs - o.mem0.gcs
}

// call runs f inside a span.
func (t *tracer) call(name, method string, setup bool, f func()) {
	i := t.begin(name, method, -1, setup)
	f()
	t.end(i)
}

// selfTimes returns each span's host duration minus the time its
// children cover. Children of one parent never overlap: the benchmark
// makes one call at a time.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] = spans[i].host()
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].host()
		}
	}
	return self
}

// layerRow is one line of the per-span-name table a traced run prints.
type layerRow struct {
	Name     string
	Calls    int
	HostMs   float64
	SelfMs   float64
	VirtualS float64
	Segments int64
	Mallocs  uint64
}

// spanTable sums the spans of several worlds by name, in order of
// first appearance.
func spanTable(worlds []*worldResult) []layerRow {
	idx := map[string]int{}
	var rows []layerRow
	for _, w := range worlds {
		self := selfTimes(w.Spans)
		for i := range w.Spans {
			s := &w.Spans[i]
			j, ok := idx[s.Name]
			if !ok {
				j = len(rows)
				idx[s.Name] = j
				rows = append(rows, layerRow{Name: s.Name})
			}
			r := &rows[j]
			r.Calls++
			r.HostMs += ms(s.host())
			r.SelfMs += ms(self[i])
			r.VirtualS += s.virtual().Seconds()
			r.Segments += s.Acct.SegmentsSent
			r.Mallocs += s.Mallocs
		}
	}
	return rows
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
