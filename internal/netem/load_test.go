package netem

import (
	"io"
	"testing"
	"time"

	"ptperf/internal/geo"
)

func TestQueueDelayGrowsWithUtilization(t *testing.T) {
	idle := NewBucket(1<<20, 0.05)
	busy := NewBucket(1<<20, 0.8)
	if busy.QueueDelay() <= idle.QueueDelay() {
		t.Fatalf("busy link must queue more: %v vs %v", busy.QueueDelay(), idle.QueueDelay())
	}
	if sat := NewBucket(1<<20, 0.999); sat.QueueDelay() > maxQueueDelay {
		t.Fatalf("queue delay must be capped, got %v", sat.QueueDelay())
	}
	if NewBucket(1<<20, 0).QueueDelay() != 0 {
		t.Fatal("idle link must not queue")
	}
}

func TestReloadRecomputesBoth(t *testing.T) {
	b := NewBucket(1<<20, 0.1)
	r0, q0 := b.Rate(), b.QueueDelay()
	b.Reload(1<<20, 0.85)
	if b.Rate() >= r0 {
		t.Fatal("reload to higher utilization must cut the rate")
	}
	if b.QueueDelay() <= q0 {
		t.Fatal("reload to higher utilization must add queueing")
	}
}

// TestLoadedHopSlowsSmallTransfers verifies the §4.2.1 mechanism: even
// a latency-bound (small) transfer pays for a saturated first hop.
func TestLoadedHopSlowsSmallTransfers(t *testing.T) {
	run := func(util float64) time.Duration {
		n := New(WithSeed(17))
		src := n.MustAddHost(HostConfig{Name: "src", Location: geo.London})
		relay := n.MustAddHost(HostConfig{Name: "relay", Location: geo.Frankfurt, Utilization: util, UplinkBps: 8 << 20, DownlinkBps: 8 << 20})
		dst := n.MustAddHost(HostConfig{Name: "dst", Location: geo.NewYork})

		dl, _ := dst.Listen(80)
		n.Go(func() {
			c, err := dl.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			io.Copy(c, c)
		})
		rl, _ := relay.Listen(81)
		n.Go(func() {
			c, err := rl.Accept()
			if err != nil {
				return
			}
			down, err := relay.Dial("dst:80")
			if err != nil {
				c.Close()
				return
			}
			n.Go(func() { io.Copy(down, c) })
			io.Copy(c, down)
		})

		conn, err := src.Dial("relay:81")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := n.Now()
		conn.Write([]byte("tiny request"))
		if _, err := io.ReadFull(conn, make([]byte, 12)); err != nil {
			t.Fatal(err)
		}
		return n.Since(start)
	}
	idle := run(0.05)
	busy := run(0.85)
	if busy <= idle {
		t.Fatalf("saturated relay (%v) must be slower than idle (%v) even for tiny transfers", busy, idle)
	}
}

func TestWirelessMediumAddsJitterAndLoss(t *testing.T) {
	// Repeated small round trips over WiFi should show more variance
	// than over Ethernet.
	measure := func(medium geo.Medium) (mean, max time.Duration) {
		n := New(WithSeed(23))
		a := n.MustAddHost(HostConfig{Name: "a", Location: geo.Toronto, Medium: medium})
		b := n.MustAddHost(HostConfig{Name: "b", Location: geo.NewYork})
		l, _ := b.Listen(80)
		n.Go(func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			io.Copy(c, c)
		})
		conn, err := a.Dial("b:80")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var total time.Duration
		const rounds = 40
		for i := 0; i < rounds; i++ {
			start := n.Now()
			conn.Write([]byte{1})
			if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
				t.Fatal(err)
			}
			rt := n.Since(start)
			total += rt
			if rt > max {
				max = rt
			}
		}
		return total / rounds, max
	}
	wiredMean, _ := measure(geo.Wired)
	wirelessMean, wirelessMax := measure(geo.Wireless)
	if wirelessMean <= wiredMean {
		t.Fatalf("wireless mean (%v) should exceed wired (%v)", wirelessMean, wiredMean)
	}
	rtt := geo.RTT(geo.Toronto, geo.NewYork)
	if wirelessMax < rtt+geo.MediumProfile(geo.Wireless).ExtraLatency {
		t.Fatalf("wireless max RTT %v implausibly small", wirelessMax)
	}
}
