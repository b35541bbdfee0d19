// Package geo models the geographic layout of the PTPerf measurement
// campaign: six cities on three continents, the propagation delay between
// them, and the access-medium profiles (wired Ethernet vs. campus WiFi)
// used in Section 4.7 of the paper.
//
// All delays are virtual durations on internal/netem's discrete-event
// clock; no real time passes while they elapse.
package geo

import (
	"fmt"
	"time"
)

// Location is one of the client/server cities used in the paper (Fig. 1).
type Location int

const (
	// NewYork is a North American server location.
	NewYork Location = iota
	// Toronto is a North American client location.
	Toronto
	// London is a European client location.
	London
	// Frankfurt is a European server location.
	Frankfurt
	// Bangalore is an Asian client location.
	Bangalore
	// Singapore is an Asian server location.
	Singapore
	numLocations
)

// Clients and Servers mirror the 3×3 client/server grid of Section 4.5.
var (
	Clients = []Location{Bangalore, London, Toronto}
	Servers = []Location{Singapore, Frankfurt, NewYork}
)

// All lists every modeled location.
var All = []Location{NewYork, Toronto, London, Frankfurt, Bangalore, Singapore}

var names = [...]string{"new-york", "toronto", "london", "frankfurt", "bangalore", "singapore"}

// Short abbreviations as used in the paper's Figure 7.
var shorts = [...]string{"NYC", "TORO", "LON", "FRA", "BLR", "SGP"}

func (l Location) String() string {
	if l < 0 || l >= numLocations {
		return fmt.Sprintf("location(%d)", int(l))
	}
	return names[l]
}

// Short returns the paper's abbreviation for the location (e.g. "BLR").
func (l Location) Short() string {
	if l < 0 || l >= numLocations {
		return "???"
	}
	return shorts[l]
}

// ParseLocation resolves a name or abbreviation to a Location.
func ParseLocation(s string) (Location, error) {
	for i, n := range names {
		if n == s || shorts[i] == s {
			return Location(i), nil
		}
	}
	return 0, fmt.Errorf("geo: unknown location %q", s)
}

// rttMS holds round-trip times in milliseconds between city pairs. The
// values follow typical public inter-datacenter measurements: intra-region
// links are 10–30 ms, transatlantic ~75–90 ms, Europe–Asia ~130–180 ms,
// NA–Asia ~200–230 ms.
var rttMS = [numLocations][numLocations]float64{
	//             NYC  TORO LON  FRA  BLR  SGP
	NewYork:   {2, 12, 75, 85, 210, 230},
	Toronto:   {12, 2, 85, 95, 220, 225},
	London:    {75, 85, 2, 14, 130, 170},
	Frankfurt: {85, 95, 14, 2, 125, 160},
	Bangalore: {210, 220, 130, 125, 2, 35},
	Singapore: {230, 225, 170, 160, 35, 2},
}

// RTT returns the base round-trip time between two locations.
func RTT(a, b Location) time.Duration {
	return time.Duration(rttMS[a][b] * float64(time.Millisecond))
}

// Medium describes the client's access medium (Section 4.7).
type Medium int

const (
	// Wired is the default Ethernet access used for most experiments.
	Wired Medium = iota
	// Wireless is the campus-WiFi access of Section 4.7: a small extra
	// latency, more jitter and a low loss rate, but an uncongested AP.
	Wireless
)

func (m Medium) String() string {
	if m == Wireless {
		return "wireless"
	}
	return "wired"
}

// Profile describes the shaping parameters a medium adds on the client's
// first (access) link.
type Profile struct {
	// ExtraLatency is added one-way on top of the propagation delay.
	ExtraLatency time.Duration
	// Jitter is the maximum random extra delay per segment.
	Jitter time.Duration
	// Loss is the per-segment probability of a loss event. A loss does
	// not drop data in the simulation; it charges the segment one
	// retransmission timeout (modeled as an extra RTT).
	Loss float64
}

// MediumProfile returns the shaping profile for a medium.
func MediumProfile(m Medium) Profile {
	switch m {
	case Wireless:
		return Profile{ExtraLatency: 3 * time.Millisecond, Jitter: 6 * time.Millisecond, Loss: 0.004}
	default:
		return Profile{Jitter: time.Millisecond}
	}
}
