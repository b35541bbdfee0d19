package tor

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
)

// cellTap is a first-hop conn that tampers with exactly one relay cell
// in one direction: the target-th relay cell (1-based) is dropped or
// passed on twice. after counts the relay cells passed on behind the
// tampered one (a duplicate included), pinning where the circuit died.
type cellTap struct {
	net.Conn
	backward bool // tamper with guard→client cells; else client→guard
	dup      bool // pass the target cell on twice instead of dropping it
	target   int

	seen, after int
	rbuf        []byte
}

// copies counts one relay cell in the tampered direction and returns
// how many copies of it to pass on.
func (c *cellTap) copies() int {
	c.seen++
	switch {
	case c.seen < c.target:
		return 1
	case c.seen > c.target:
		c.after++
		return 1
	case c.dup:
		c.after++
		return 2
	}
	return 0
}

func (c *cellTap) Read(p []byte) (int, error) {
	for len(c.rbuf) == 0 {
		cell := make([]byte, CellSize)
		if _, err := io.ReadFull(c.Conn, cell); err != nil {
			return 0, err
		}
		n := 1
		if c.backward && Command(cell[4]) == CmdRelay {
			n = c.copies()
		}
		c.rbuf = bytes.Repeat(cell, n)
	}
	n := copy(p, c.rbuf)
	c.rbuf = c.rbuf[n:]
	return n, nil
}

func (c *cellTap) Write(p []byte) (int, error) {
	if c.backward || len(p) != CellSize || Command(p[4]) != CmdRelay {
		return c.Conn.Write(p)
	}
	if n := c.copies(); n > 0 {
		if _, err := c.Conn.Write(bytes.Repeat(p, n)); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// runTappedEcho echoes enough data through a 3-hop circuit whose first
// hop is tapped and returns the circuit's close reason.
func runTappedEcho(t *testing.T, tap *cellTap) error {
	t.Helper()
	w := buildWorld(t, 1, 1, 1)
	c := newTestClient(t, w, func(cfg *ClientConfig) {
		cfg.DialFirstHop = func(g *Descriptor) (net.Conn, error) {
			conn, err := w.client.Dial(g.Addr)
			if err != nil {
				return nil, err
			}
			tap.Conn = conn
			return tap, nil
		}
	})
	conn, err := c.Dial(w.target)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c.mu.Lock()
	circ := c.circ
	c.mu.Unlock()

	msg := bytes.Repeat([]byte("desync."), 700) // ~10 DATA cells each way
	if _, err := conn.Write(msg); err != nil && !errors.Is(err, ErrCircuitClosed) {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err == nil {
		t.Fatal("echo survived a tampered cell")
	}
	if !circ.isClosed() {
		t.Fatal("circuit still open after a tampered cell")
	}
	return circ.closeReason()
}

// A relay cell lost or duplicated after the guard added its onion layer
// desynchronizes the client's per-hop backward state: the very next
// relay cell the client reads must fail recognition and close the
// circuit, and no later cell may be read.
func TestBackwardDesyncClosesOnNextCell(t *testing.T) {
	// Backward relay cells: EXTENDED (guard), EXTENDED (middle),
	// CONNECTED, then DATA; the target is the second DATA cell.
	for _, dup := range []bool{false, true} {
		tap := &cellTap{backward: true, dup: dup, target: 5}
		err := runTappedEcho(t, tap)
		if err == nil || !strings.Contains(err.Error(), "unrecognized backward cell") {
			t.Fatalf("dup=%v: close reason %v, want unrecognized backward cell", dup, err)
		}
		if tap.after != 1 {
			t.Fatalf("dup=%v: %d relay cells read after the tampered one, want 1", dup, tap.after)
		}
	}
}

// The forward twin: a relay cell lost or duplicated between the client
// and the guard leaves every later forward cell unrecognizable at every
// hop, so the exit tears the circuit down and the client sees DESTROY.
func TestForwardDesyncDestroysCircuit(t *testing.T) {
	// Forward relay cells: EXTEND, EXTEND, BEGIN, then DATA; the target
	// is the first DATA cell.
	for _, dup := range []bool{false, true} {
		tap := &cellTap{dup: dup, target: 4}
		if err := runTappedEcho(t, tap); !errors.Is(err, ErrCircuitClosed) {
			t.Fatalf("dup=%v: close reason %v, want %v", dup, err, ErrCircuitClosed)
		}
		if tap.after < 1 {
			t.Fatalf("dup=%v: circuit died before the next forward cell", dup)
		}
	}
}
