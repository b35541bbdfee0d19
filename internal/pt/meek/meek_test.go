package meek

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"testing/quick"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

func TestPollFrameRoundTrip(t *testing.T) {
	f := func(sid uint64, body []byte) bool {
		var buf bytes.Buffer
		if err := writePoll(&buf, sid, body); err != nil {
			return false
		}
		gotSid, gotBody, err := readPoll(&buf)
		if err != nil {
			return false
		}
		return gotSid == sid && bytes.Equal(gotBody, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReplyFrameRoundTrip(t *testing.T) {
	f := func(status byte, body []byte) bool {
		var buf bytes.Buffer
		if err := writeReply(&buf, status, body); err != nil {
			return false
		}
		gotStatus, gotBody, err := readReply(&buf)
		if err != nil {
			return false
		}
		return gotStatus == status && bytes.Equal(gotBody, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadPollRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 1}) // sid
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length
	if _, _, err := readPoll(&buf); err == nil {
		t.Fatal("oversized poll must be rejected")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Chunk != DefaultChunk || c.MinPoll != DefaultMinPoll ||
		c.BridgeRate != DefaultBridgeRate || c.SessionBudgetMedian != DefaultSessionBudgetMedian {
		t.Fatalf("defaults: %+v", c)
	}
	// Negative budget disables the cut.
	c2 := Config{SessionBudgetMedian: -1}.withDefaults()
	if c2.SessionBudgetMedian != -1 {
		t.Fatal("negative budget must survive defaulting")
	}
}

func TestDrawBudgetRespectsDisable(t *testing.T) {
	b := &Bridge{cfg: Config{SessionBudgetMedian: -1}.withDefaults(), rng: rand.New(rand.NewSource(1))}
	if got := b.drawBudget(); got < 1<<60 {
		t.Fatalf("disabled budget should be effectively infinite, got %d", got)
	}
	b2 := &Bridge{cfg: Config{SessionBudgetMedian: 1 << 20}.withDefaults(), rng: rand.New(rand.NewSource(2))}
	for i := 0; i < 100; i++ {
		if got := b2.drawBudget(); got < 64<<10 {
			t.Fatalf("budget draw below floor: %d", got)
		}
	}
}

// reapWorld starts a bridge with a short staleness window and a handler
// that drains its stream, reporting the instant the stream ends.
func reapWorld(t *testing.T, staleness time.Duration) (*netem.Clock, *Bridge, net.Conn, *netem.Chan[time.Duration]) {
	t.Helper()
	n := netem.New(netem.WithSeed(1))
	client := n.MustAddHost(netem.HostConfig{Name: "front", Location: geo.London})
	server := n.MustAddHost(netem.HostConfig{Name: "bridge", Location: geo.Frankfurt})
	clock := n.Clock()
	ended := netem.NewChan[time.Duration](clock, 1)
	b, err := StartBridge(server, 443, Config{Staleness: staleness, SessionBudgetMedian: -1}, func(_ string, c net.Conn) {
		io.Copy(io.Discard, c)
		ended.TrySend(clock.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return clock, b, conn, ended
}

// poll sends one poll for sid and returns the reply status and the
// session's lastSeen as the bridge recorded it.
func poll(t *testing.T, b *Bridge, conn net.Conn, sid uint64, body []byte) (byte, time.Duration) {
	t.Helper()
	if err := writePoll(conn, sid, body); err != nil {
		t.Fatal(err)
	}
	status, _, err := readReply(conn)
	if err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	s := b.sessions[sid]
	b.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return status, s.lastSeen
}

func targetPrologue(t *testing.T) []byte {
	var buf bytes.Buffer
	if err := pt.WriteTarget(&buf, "guard:9001"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBridgeReapsStaleSession pins the reaper's instants: it checks the
// session every Staleness from its creation, so a client that stops
// polling is cut at the first tick created + k·Staleness at or after
// lastSeen + Staleness. The cut ends the handler's stream and answers
// later polls with "gone".
func TestBridgeReapsStaleSession(t *testing.T) {
	const staleness = 10 * time.Second
	clock, b, conn, ended := reapWorld(t, staleness)
	const sid = 7
	_, created := poll(t, b, conn, sid, targetPrologue(t))
	var lastSeen time.Duration
	for _, gap := range []time.Duration{3 * time.Second, 4 * time.Second, 7 * time.Second} {
		clock.Sleep(gap)
		_, lastSeen = poll(t, b, conn, sid, nil)
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
		t.Fatalf("stream ended at %v, want %v (created %v, last poll %v)", at, want, created, lastSeen)
	}
	if status, _ := poll(t, b, conn, sid, nil); status != statusGone {
		t.Fatalf("poll after the reap: status %d, want gone", status)
	}
}

// TestBridgeKeepsPolledSession: a client that keeps polling within the
// staleness window is never reaped.
func TestBridgeKeepsPolledSession(t *testing.T) {
	const staleness = 10 * time.Second
	clock, b, conn, ended := reapWorld(t, staleness)
	const sid = 9
	poll(t, b, conn, sid, targetPrologue(t))
	for i := 0; i < 40; i++ {
		clock.Sleep(staleness / 2)
		if status, _ := poll(t, b, conn, sid, nil); status != statusOK {
			t.Fatalf("poll %d: status %d, want ok", i, status)
		}
	}
	if ended.Len() != 0 {
		t.Fatal("a polled session was reaped")
	}
}
