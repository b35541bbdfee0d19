package dnstt

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"testing/quick"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

func TestFrameRoundTrip(t *testing.T) {
	f := func(head, data []byte) bool {
		if len(head)+len(data) > 60000 {
			return true
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, head, data); err != nil {
			return false
		}
		got, err := readFrame(&buf)
		if err != nil {
			return false
		}
		want := append(append([]byte{}, head...), data...)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.QueryCap != DefaultQueryCap || c.RespCap != DefaultRespCap ||
		c.Inflight != DefaultInflight || c.BudgetMedian != DefaultBudgetMedian {
		t.Fatalf("defaults: %+v", c)
	}
	if c2 := (Config{BudgetMedian: -5}).withDefaults(); c2.BudgetMedian != -5 {
		t.Fatal("negative budget must survive defaulting")
	}
}

// newTestSession returns a server session outside any running server.
func newTestSession() *serverSession {
	return &serverSession{Stream: pt.NewStream(netem.NewClock(), "server", "client", serverQueue)}
}

func TestServerSessionReassembly(t *testing.T) {
	ss := newTestSession()
	ss.acceptUpstream(1, []byte("BB"))
	ss.acceptUpstream(0, []byte("AA"))
	ss.acceptUpstream(2, []byte("CC"))
	buf := make([]byte, 16)
	if n, _ := ss.Read(buf); string(buf[:n]) != "AABBCC" {
		t.Fatalf("reassembly: %q", buf[:n])
	}
	// Empty-poll sentinel must not block the sequence.
	ss.acceptUpstream(emptyQseq, nil)
	ss.acceptUpstream(3, []byte("DD"))
	if n, _ := ss.Read(buf); string(buf[:n]) != "DD" {
		t.Fatalf("after empty poll: %q", buf[:n])
	}
	// Straggler queries after the session closed are not buffered.
	ss.Close()
	ss.acceptUpstream(4, []byte("EE"))
	if n, err := ss.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("after close: %q %v", buf[:n], err)
	}
}

func TestTakeDownstreamRespectsCap(t *testing.T) {
	ss := newTestSession()
	if _, err := ss.Write(bytes.Repeat([]byte{1}, 1500)); err != nil {
		t.Fatal(err)
	}
	chunk, rseq := ss.takeDownstream(512)
	if len(chunk) != 512 || rseq != 0 {
		t.Fatalf("chunk=%d rseq=%d", len(chunk), rseq)
	}
	chunk, rseq = ss.takeDownstream(512)
	if len(chunk) != 512 || rseq != 1 {
		t.Fatalf("second chunk=%d rseq=%d", len(chunk), rseq)
	}
	chunk, rseq = ss.takeDownstream(512)
	if len(chunk) != 476 || rseq != 2 {
		t.Fatalf("tail chunk=%d rseq=%d", len(chunk), rseq)
	}
	if chunk, rseq = ss.takeDownstream(512); chunk != nil || rseq != emptyRseq {
		t.Fatal("empty queue must answer the empty sentinel")
	}
}

func TestClientReorder(t *testing.T) {
	tc := &tunnelConn{Stream: pt.NewStream(netem.NewClock(), "client", "tunnel", clientQueue)}
	tc.Deliver(1, []byte("bb"))
	tc.Deliver(0, []byte("aa"))
	buf := make([]byte, 16)
	if n, _ := tc.Read(buf); string(buf[:n]) != "aabb" {
		t.Fatalf("reorder: %q", buf[:n])
	}
	tc.Deliver(0, []byte("zz")) // stale duplicate ignored
	tc.Deliver(2, []byte("cc"))
	if n, _ := tc.Read(buf); string(buf[:n]) != "cc" {
		t.Fatalf("duplicate accepted: %q", buf[:n])
	}
}

// reapWorld starts a tunnel server with a short staleness window and a
// handler that drains its stream, reporting the instant the stream ends.
func reapWorld(t *testing.T, staleness time.Duration) (*netem.Clock, *Server, net.Conn, *netem.Chan[time.Duration]) {
	t.Helper()
	n := netem.New(netem.WithSeed(1))
	resolver := n.MustAddHost(netem.HostConfig{Name: "resolver", Location: geo.London})
	server := n.MustAddHost(netem.HostConfig{Name: "dnstt", Location: geo.Frankfurt})
	clock := n.Clock()
	ended := netem.NewChan[time.Duration](clock, 1)
	s, err := StartServer(server, 53, Config{Staleness: staleness}, func(_ string, c net.Conn) {
		io.Copy(io.Discard, c)
		ended.TrySend(clock.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := resolver.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return clock, s, conn, ended
}

// query sends one query for sid and returns the session's lastSeen as
// the server recorded it.
func query(t *testing.T, s *Server, conn net.Conn, sid string, qseq uint32, data []byte) time.Duration {
	t.Helper()
	head := make([]byte, sessionLen+4)
	copy(head, sid)
	binary.BigEndian.PutUint32(head[sessionLen:], qseq)
	if err := writeFrame(conn, head, data); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(conn); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	ss := s.sessions[sid]
	s.mu.Unlock()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.lastSeen
}

func targetPrologue(t *testing.T) []byte {
	var buf bytes.Buffer
	if err := pt.WriteTarget(&buf, "guard:9001"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServerReapsStaleSession pins the reaper's instants: it checks the
// session every Staleness from its creation, so a client that stops
// querying is cut at the first tick created + k·Staleness at or after
// lastSeen + Staleness, which ends the handler's stream.
func TestServerReapsStaleSession(t *testing.T) {
	const staleness = 10 * time.Second
	clock, s, conn, ended := reapWorld(t, staleness)
	const sid = "session1"
	created := query(t, s, conn, sid, 0, targetPrologue(t))
	var lastSeen time.Duration
	for _, gap := range []time.Duration{3 * time.Second, 4 * time.Second, 7 * time.Second} {
		clock.Sleep(gap)
		lastSeen = query(t, s, conn, sid, emptyQseq, nil)
	}
	at, ok := ended.Recv()
	if !ok {
		t.Fatal("handler never saw its stream end")
	}
	want := created
	for want < lastSeen+staleness {
		want += staleness
	}
	if at != want {
		t.Fatalf("stream ended at %v, want %v (created %v, last query %v)", at, want, created, lastSeen)
	}
}

// TestServerKeepsQueriedSession: a client that keeps querying within
// the staleness window is never reaped.
func TestServerKeepsQueriedSession(t *testing.T) {
	const staleness = 10 * time.Second
	clock, s, conn, ended := reapWorld(t, staleness)
	const sid = "session2"
	query(t, s, conn, sid, 0, targetPrologue(t))
	for i := 0; i < 40; i++ {
		clock.Sleep(staleness / 2)
		query(t, s, conn, sid, emptyQseq, nil)
	}
	if ended.Len() != 0 {
		t.Fatal("a queried session was reaped")
	}
}
