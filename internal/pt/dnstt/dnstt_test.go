package dnstt

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

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
