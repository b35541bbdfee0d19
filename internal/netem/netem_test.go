package netem

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
	"time"

	"ptperf/internal/geo"
)

// testNetwork builds a two-host network with a fast clock for tests.
func testNetwork(t *testing.T) (*Network, *Host, *Host) {
	t.Helper()
	n := New(WithSeed(7))
	a := n.MustAddHost(HostConfig{Name: "a", Location: geo.London})
	b := n.MustAddHost(HostConfig{Name: "b", Location: geo.Frankfurt})
	return n, a, b
}

func TestDialRefused(t *testing.T) {
	_, a, _ := testNetwork(t)
	if _, err := a.Dial("b:80"); err == nil {
		t.Fatal("expected connection refused")
	}
	if _, err := a.Dial("nohost:80"); err == nil {
		t.Fatal("expected no such host")
	}
	if _, err := a.Dial("garbage"); err == nil {
		t.Fatal("expected bad address")
	}
}

func TestRoundTripBytes(t *testing.T) {
	n, a, b := testNetwork(t)
	l, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	msg := bytes.Repeat([]byte("payload-"), 1000)
	n.Go(func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf, _ := io.ReadAll(c)
		c.Write(buf) // echo
		c.(*Conn).CloseWrite()
	})

	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	c.(*Conn).CloseWrite()
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: got %d bytes want %d", len(got), len(msg))
	}
}

func TestLatencyAccounting(t *testing.T) {
	n, a, b := testNetwork(t)
	l, _ := b.Listen(80)
	defer l.Close()
	n.Go(func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 1)
		c.Read(buf)
		c.Write(buf)
	})

	start := n.Now()
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dialTime := n.Since(start)
	rtt := geo.RTT(geo.London, geo.Frankfurt)
	if dialTime < rtt {
		t.Fatalf("dial took %v virtual, want >= one RTT %v", dialTime, rtt)
	}

	start = n.Now()
	c.Write([]byte{1})
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	echo := n.Since(start)
	if echo < rtt {
		t.Fatalf("echo took %v virtual, want >= RTT %v", echo, rtt)
	}
	if echo > 40*rtt {
		t.Fatalf("echo took %v virtual, implausibly long vs RTT %v", echo, rtt)
	}
}

func TestBandwidthContention(t *testing.T) {
	// Two flows sharing one egress bucket should each see roughly half
	// the capacity (the guard-load mechanism).
	n := New(WithSeed(3))
	src := n.MustAddHost(HostConfig{Name: "src", Location: geo.London, UplinkBps: 2 << 20})
	dst := n.MustAddHost(HostConfig{Name: "dst", Location: geo.London})
	l, _ := dst.Listen(80)
	defer l.Close()

	const payload = 512 << 10
	recv := func() time.Duration {
		c, err := l.Accept()
		if err != nil {
			return 0
		}
		defer c.Close()
		start := n.Now()
		io.Copy(io.Discard, c)
		return n.Since(start)
	}
	wg := NewWaitGroup(n.Clock())
	durs := make([]time.Duration, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		n.Go(func() {
			defer wg.Done()
			durs[i] = recv()
		})
	}
	send := func() {
		c, err := src.Dial("dst:80")
		if err != nil {
			t.Error(err)
			return
		}
		c.Write(make([]byte, payload))
		c.Close()
	}
	sg := NewWaitGroup(n.Clock())
	for i := 0; i < 2; i++ {
		sg.Add(1)
		n.Go(func() { defer sg.Done(); send() })
	}
	sg.Wait()
	wg.Wait()

	// One 512 KiB flow alone takes 0.25 s virtual at 2 MB/s; two sharing
	// should each take close to 0.5 s.
	for i, d := range durs {
		if d < 300*time.Millisecond {
			t.Fatalf("flow %d finished in %v, too fast for contended link", i, d)
		}
	}
}

func TestUtilizationReducesRate(t *testing.T) {
	busy := NewBucket(1<<20, 0.75)
	idle := NewBucket(1<<20, 0)
	nb := busy.Reserve(0, 1<<20)
	ni := idle.Reserve(0, 1<<20)
	if nb <= ni*3 {
		t.Fatalf("75%% utilized link should be ~4x slower: busy=%v idle=%v", nb, ni)
	}
}

func TestDeadline(t *testing.T) {
	n, a, b := testNetwork(t)
	l, _ := b.Listen(80)
	defer l.Close()
	n.Go(func() {
		c, _ := l.Accept()
		if c != nil {
			// Never respond: park in a read that no data resolves.
			c.Read(make([]byte, 1))
			c.Close()
		}
	})
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(n.VirtualDeadline(20 * time.Millisecond))
	buf := make([]byte, 1)
	_, err = c.Read(buf)
	ne, ok := err.(interface{ Timeout() bool })
	if !ok || !ne.Timeout() {
		t.Fatalf("want timeout error, got %v", err)
	}
}

// TestDeadlineRejectsWallClock pins the runtime backstop behind the
// simlint wallclock rule: a wall-clock instant handed to a deadline
// setter (the time.Now().Add(d) idiom) decodes ~74 years before Epoch
// and must be rejected with a diagnosable error instead of being
// stored as an already-expired virtual deadline. A fixed 2026 date
// stands in for time.Now(), which is itself banned in this package.
func TestDeadlineRejectsWallClock(t *testing.T) {
	n, a, b := testNetwork(t)
	l, _ := b.Listen(80)
	defer l.Close()
	n.Go(func() {
		if c, _ := l.Accept(); c != nil {
			c.Read(make([]byte, 1))
			c.Close()
		}
	})
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wall := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC).Add(5 * time.Second)
	for _, set := range []func(time.Time) error{c.SetDeadline, c.SetReadDeadline, c.SetWriteDeadline} {
		if err := set(wall); err == nil {
			t.Fatal("wall-clock deadline accepted; want rejection naming netem.Epoch")
		}
	}
	// The rejected deadline must not have been stored: a legitimate
	// virtual deadline set afterwards still governs the read.
	if err := c.SetReadDeadline(n.VirtualDeadline(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err = c.Read(make([]byte, 1))
	ne, ok := err.(interface{ Timeout() bool })
	if !ok || !ne.Timeout() {
		t.Fatalf("want timeout error, got %v", err)
	}
	// Zero time (clear the deadline) stays legal.
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseSemantics(t *testing.T) {
	n, a, b := testNetwork(t)
	l, _ := b.Listen(80)
	defer l.Close()
	srv := NewChan[*Conn](n.Clock(), 2)
	n.Go(func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			srv.Send(c.(*Conn))
		}
	})
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := srv.Recv()
	c.Write([]byte("hi"))
	c.Close()
	buf := make([]byte, 16)
	nr, _ := io.ReadFull(s, buf[:2])
	if nr != 2 {
		t.Fatalf("peer should read buffered data after close, got %d", nr)
	}
	if _, err := s.Read(buf); err != io.EOF {
		t.Fatalf("want EOF after close, got %v", err)
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write on closed conn should fail")
	}
	// Abort drops everything.
	c2, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := srv.Recv()
	c2.(*Conn).Abort()
	if _, err := s2.Write(make([]byte, 1<<20)); err == nil {
		t.Fatal("write to aborted peer should eventually fail")
	}
}

func TestBucketMonotonic(t *testing.T) {
	b := NewBucket(1<<20, 0)
	f := func(sizes []uint16) bool {
		var prev time.Duration
		now := time.Duration(0)
		for _, s := range sizes {
			done := b.Reserve(now, int(s))
			if done < prev || done < now {
				return false
			}
			prev = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEphemeralPortsUnique(t *testing.T) {
	_, a, _ := testNetwork(t)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		p := a.ephemeral()
		if seen[p] {
			t.Fatalf("duplicate ephemeral port %d", p)
		}
		seen[p] = true
	}
}

func TestListenDuplicatePort(t *testing.T) {
	_, a, _ := testNetwork(t)
	if _, err := a.Listen(81); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Listen(81); err == nil {
		t.Fatal("duplicate listen should fail")
	}
}
