package dnstt

import (
	"bytes"
	"testing"
	"testing/quick"

	"ptperf/internal/netem"
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

func TestServerSessionReassembly(t *testing.T) {
	ss := &serverSession{upHeld: make(map[uint32][]byte)}
	ss.cond = netem.NewCond(netem.NewClock(), &ss.mu)
	ss.acceptUpstream(1, []byte("BB"))
	ss.acceptUpstream(0, []byte("AA"))
	ss.acceptUpstream(2, []byte("CC"))
	if string(ss.upBuf) != "AABBCC" {
		t.Fatalf("reassembly: %q", ss.upBuf)
	}
	// Empty-poll sentinel must not block the sequence.
	ss.acceptUpstream(emptyQseq, nil)
	ss.acceptUpstream(3, []byte("DD"))
	if string(ss.upBuf) != "AABBCCDD" {
		t.Fatalf("after empty poll: %q", ss.upBuf)
	}
}

func TestTakeDownstreamRespectsCap(t *testing.T) {
	ss := &serverSession{upHeld: make(map[uint32][]byte)}
	ss.cond = netem.NewCond(netem.NewClock(), &ss.mu)
	ss.downBuf = bytes.Repeat([]byte{1}, 1500)
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
	tc := &tunnelConn{held: make(map[uint32][]byte)}
	tc.cond = netem.NewCond(netem.NewClock(), &tc.mu)
	tc.acceptDownstream(1, []byte("bb"))
	tc.acceptDownstream(0, []byte("aa"))
	if string(tc.downBuf) != "aabb" {
		t.Fatalf("reorder: %q", tc.downBuf)
	}
	tc.acceptDownstream(0, []byte("zz")) // stale duplicate ignored
	if string(tc.downBuf) != "aabb" {
		t.Fatalf("duplicate accepted: %q", tc.downBuf)
	}
}
