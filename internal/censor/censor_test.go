package censor

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
)

// testNet builds a two-host network with scenario sc attached.
func testNet(t *testing.T, sc Scenario) (*netem.Network, *Censor, *netem.Host, *netem.Host) {
	t.Helper()
	n := netem.New(netem.WithSeed(7))
	a := n.MustAddHost(netem.HostConfig{Name: "a", Location: geo.London})
	b := n.MustAddHost(netem.HostConfig{Name: "b", Location: geo.Frankfurt})
	c := Attach(n, sc, 7, 1)
	return n, c, a, b
}

// transfer sends size bytes from a to b:80 and returns the virtual time
// at which the last byte arrived at the receiver.
func transfer(t *testing.T, n *netem.Network, a, b *netem.Host, size int) time.Duration {
	t.Helper()
	ln, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := netem.NewChan[time.Duration](n.Clock(), 1)
	n.Go(func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		got, _ := io.Copy(io.Discard, c)
		if int(got) != size {
			t.Errorf("receiver got %d of %d bytes", got, size)
		}
		done.Send(n.Now())
	})
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := n.Now()
	if _, err := c.Write(bytes.Repeat([]byte{0xCC}, size)); err != nil {
		t.Fatal(err)
	}
	c.(*netem.Conn).CloseWrite()
	at, ok := done.Recv()
	if !ok {
		t.Fatal("receiver never finished")
	}
	return at - start
}

func TestThrottlePrimitiveBoundsRate(t *testing.T) {
	const size = 2 << 20
	n, _, a, b := testNet(t, Scenario{Name: "t0"})
	base := transfer(t, n, a, b, size)

	sc := Scenario{Name: "t1", Events: []Event{{Rule: Rule{
		Name: "throttle", Match: Match{Via: "a"}, RateBps: 1 << 20,
	}}}}
	n2, c2, a2, b2 := testNet(t, sc)
	slow := transfer(t, n2, a2, b2, size)

	if base > time.Second {
		t.Fatalf("baseline transfer unexpectedly slow: %v", base)
	}
	// 2 MB through a 1 MB/s throttle needs ≥ 2 virtual seconds.
	if slow < 1500*time.Millisecond {
		t.Fatalf("throttled transfer too fast: %v (baseline %v)", slow, base)
	}
	if c2.Stats().ThrottledSegments == 0 {
		t.Fatal("throttle applied but no segments counted")
	}
}

func TestLossPrimitiveAddsPenalty(t *testing.T) {
	const size = 64 << 10
	n, _, a, b := testNet(t, Scenario{Name: "l0"})
	base := transfer(t, n, a, b, size)

	sc := Scenario{Name: "l1", Events: []Event{{Rule: Rule{
		Name: "loss", Match: Match{Via: "a"}, Loss: 1, LossPenalty: time.Second,
	}}}}
	n2, c2, a2, b2 := testNet(t, sc)
	slow := transfer(t, n2, a2, b2, size)

	if slow < base+900*time.Millisecond {
		t.Fatalf("loss penalty not charged: base %v, lossy %v", base, slow)
	}
	if c2.Stats().LossEvents == 0 {
		t.Fatal("loss applied but no events counted")
	}
}

func TestResetPrimitiveTearsConnection(t *testing.T) {
	sc := Scenario{Name: "r1", Events: []Event{{Rule: Rule{
		Name: "rst", Match: Match{Hosts: []string{"b"}}, ResetProb: 1,
	}}}}
	n, c, a, b := testNet(t, sc)
	ln, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	n.Go(func() {
		cn, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, cn)
		cn.Close()
	})
	conn, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello")); !errors.Is(err, netem.ErrReset) {
		t.Fatalf("want ErrReset, got %v", err)
	}
	if c.Stats().Resets == 0 {
		t.Fatal("reset fired but not counted")
	}
}

func TestBlockWindowRefusesAndCuts(t *testing.T) {
	sc := Scenario{Name: "b1", Events: []Event{{
		At: 5 * time.Second,
		Rule: Rule{
			Name: "block", Match: Match{Via: "a", Hosts: []string{"b"}}, Block: true,
		},
	}}}
	n, c, a, b := testNet(t, sc)
	ln, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ln.Serve(func(cn net.Conn) {
		io.Copy(io.Discard, cn)
		cn.Close()
	})

	// Before the window: dialing works and the flow stays up.
	conn, err := a.Dial("b:80")
	if err != nil {
		t.Fatalf("pre-window dial failed: %v", err)
	}
	if _, err := conn.Write([]byte("pre")); err != nil {
		t.Fatalf("pre-window write failed: %v", err)
	}

	// Cross the activation: the live flow is cut and new dials refuse.
	n.Clock().SleepUntil(6 * time.Second)
	if _, err := conn.Write(bytes.Repeat([]byte("x"), 4096)); err == nil {
		t.Fatal("write on a cut flow succeeded")
	}
	if _, err := a.Dial("b:80"); !errors.Is(err, ErrBlocked) {
		t.Fatalf("in-window dial: want ErrBlocked, got %v", err)
	}
	st := c.Stats()
	if st.BlockedDials != 1 || st.FlowsCut != 1 {
		t.Fatalf("stats = %+v, want 1 blocked dial and 1 cut flow", st)
	}

	// An unmatched destination is unaffected.
	if _, err := a.Dial("a:81"); err == nil {
		t.Fatal("expected refused (no listener), not blocked")
	} else if errors.Is(err, ErrBlocked) {
		t.Fatal("censor blocked an unmatched endpoint")
	}
}

func TestThrottleWindowEnds(t *testing.T) {
	sc := Scenario{Name: "w1", Events: []Event{{
		At:       0,
		Duration: 2 * time.Second,
		Rule: Rule{
			Name: "burst", Match: Match{Via: "a"}, RateBps: 256 << 10,
		},
	}}}
	n, _, a, b := testNet(t, sc)
	in := transfer(t, n, a, b, 512<<10) // 512 KB at 256 KB/s ≥ 2s
	if in < 1500*time.Millisecond {
		t.Fatalf("in-window transfer not throttled: %v", in)
	}
	n.Clock().SleepUntil(10 * time.Second)
	ln, _ := b.Listen(81)
	defer ln.Close()
	out := transferOn(t, n, a, "b:81", ln, 512<<10)
	if out > time.Second {
		t.Fatalf("post-window transfer still throttled: %v", out)
	}
}

// transferOn is transfer against an explicit listener/address.
func transferOn(t *testing.T, n *netem.Network, a *netem.Host, addr string, ln *netem.Listener, size int) time.Duration {
	t.Helper()
	done := netem.NewChan[time.Duration](n.Clock(), 1)
	n.Go(func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c)
		done.Send(n.Now())
	})
	c, err := a.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := n.Now()
	if _, err := c.Write(bytes.Repeat([]byte{0xAB}, size)); err != nil {
		t.Fatal(err)
	}
	c.(*netem.Conn).CloseWrite()
	at, ok := done.Recv()
	if !ok {
		t.Fatal("receiver never finished")
	}
	return at - start
}

func TestMatchSemantics(t *testing.T) {
	cases := []struct {
		m        Match
		src, dst string
		want     bool
	}{
		{Match{}, "a:1", "b:2", true},
		{Match{Via: "client"}, "client:40001", "bridge:443", true},
		{Match{Via: "client"}, "bridge:443", "client:40001", true},
		{Match{Via: "client"}, "relay:9001", "bridge:443", false},
		{Match{Via: "client", Hosts: []string{"obfs4-bridge-*"}}, "client:1", "obfs4-bridge-3:443", true},
		{Match{Via: "client", Hosts: []string{"obfs4-bridge-*"}}, "client:1", "meek-bridge-3:443", false},
		{Match{Via: "client", Port: 443}, "client:1", "bridge:443", true},
		{Match{Via: "client", Port: 443}, "client:1", "bridge:80", false},
		{Match{Hosts: []string{"guard-0"}}, "guard-0:9001", "client:5", true},
		{Match{Hosts: []string{"*-bridge-*"}}, "client:1", "obfs4-bridge-3:443", true},
		{Match{Hosts: []string{"*-bridge-*"}}, "client:1", "cdn-front-2:443", false},
		{Match{Hosts: []string{"guard-0"}}, "client:1", "guard-01:9001", false},
	}
	for i, tc := range cases {
		if got := tc.m.Hit(tc.src, tc.dst); got != tc.want {
			t.Errorf("case %d: Hit(%q,%q) = %v, want %v", i, tc.src, tc.dst, got, tc.want)
		}
	}
}

func TestBindLoadPlaysPhases(t *testing.T) {
	sc := Scenario{Name: "p1", Phases: []LoadPhase{
		{At: 0, Label: "calm", Util: 0.1, Lifetime: 300 * time.Second},
		{At: 3 * time.Second, Label: "surge", Util: 0.8, Lifetime: 25 * time.Second},
	}}
	n, c, _, _ := testNet(t, sc)
	var seen []string
	c.BindLoad(func(p LoadPhase) { seen = append(seen, p.Label) })
	if len(seen) != 1 || seen[0] != "calm" {
		t.Fatalf("immediate phase = %v, want [calm]", seen)
	}
	n.Clock().SleepUntil(4 * time.Second)
	if len(seen) != 2 || seen[1] != "surge" {
		t.Fatalf("phases after window = %v, want [calm surge]", seen)
	}
}

func TestSameSeedSameInterference(t *testing.T) {
	run := func() time.Duration {
		sc, err := Lookup("lossy-path")
		if err != nil {
			t.Fatal(err)
		}
		n := netem.New(netem.WithSeed(9))
		a := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
		b := n.MustAddHost(netem.HostConfig{Name: "b", Location: geo.NewYork})
		Attach(n, sc, 9, 1)
		return transfer(t, n, a, b, 256<<10)
	}
	if x, y := run(), run(); x != y {
		t.Fatalf("same seed, different transfer times: %v vs %v", x, y)
	}
}

func TestRegistryBuiltins(t *testing.T) {
	for _, name := range []string{"clean", "throttle-surge", "lossy-path", "bridge-block", "snowflake-surge"} {
		if _, err := Lookup(name); err != nil {
			t.Errorf("builtin %q missing: %v", name, err)
		}
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("unknown scenario lookup succeeded")
	}
	sf, _ := Lookup("snowflake-surge")
	if len(sf.Phases) != len(SurgePhases) {
		t.Errorf("snowflake-surge has %d phases, want %d", len(sf.Phases), len(SurgePhases))
	}
}
