package pt

import (
	"fmt"
	"net"
	"sync"

	"ptperf/internal/netem"
)

// Wrapper upgrades a raw connection into the transport's obfuscated
// stream: the server side of the handshake on an accepted conn, the
// client side on a dialed one.
type Wrapper func(conn net.Conn) (net.Conn, error)

// SeededWrapper is a handshake that draws its randomness from a
// per-connection seed.
type SeededWrapper func(conn net.Conn, seed int64) (net.Conn, error)

// Seeds is one transport endpoint's per-connection seed sequence:
// base+1, base+2, … in draw order. Each server and dialer owns one and
// salts its base, so the two ends of a connection never share a seed.
type Seeds struct {
	mu   sync.Mutex
	last int64
}

// NewSeeds starts a sequence whose first draw is base+1.
func NewSeeds(base int64) *Seeds { return &Seeds{last: base} }

// Next draws the sequence's next seed.
func (s *Seeds) Next() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last++
	return s.last
}

// Seeded adapts a seeded handshake to a Wrapper that draws the next
// seed of base's sequence as each connection starts its handshake.
func Seeded(base int64, wrap SeededWrapper) Wrapper {
	seeds := NewSeeds(base)
	return func(conn net.Conn) (net.Conn, error) { return wrap(conn, seeds.Next()) }
}

// listenServer is the standard single-listener PT server.
type listenServer struct {
	ln   *netem.Listener
	addr string
}

// Addr implements Server.
func (s *listenServer) Addr() string { return s.addr }

// Close implements Server.
func (s *listenServer) Close() error { return s.ln.Close() }

// ListenAndServe runs the common PT server skeleton: accept, wrap,
// read the target prologue, hand off to the stream handler.
func ListenAndServe(host *netem.Host, port int, wrap Wrapper, handle StreamHandler) (Server, error) {
	ln, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	ln.Serve(func(raw net.Conn) {
		conn := raw
		if wrap != nil {
			var err error
			conn, err = wrap(raw)
			if err != nil {
				raw.Close()
				return
			}
		}
		target, err := ReadTarget(conn)
		if err != nil {
			conn.Close()
			return
		}
		handle(target, conn)
	})
	return &listenServer{ln: ln, addr: fmt.Sprintf("%s:%d", host.Name(), port)}, nil
}

// SeededDialer runs the common PT client skeleton: each Dial draws the
// next seed of base's sequence, dials addr, runs the client handshake
// and sends the target prologue. Errors carry the transport's name.
func SeededDialer(name string, host *netem.Host, addr string, base int64, wrap SeededWrapper) Dialer {
	seeds := NewSeeds(base)
	return DialerFunc(func(target string) (net.Conn, error) {
		seed := seeds.Next()
		raw, err := host.Dial(addr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		conn, err := wrap(raw, seed)
		if err != nil {
			raw.Close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := WriteTarget(conn, target); err != nil {
			conn.Close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return conn, nil
	})
}

// Refuse returns a Dialer whose every Dial fails with err, for a client
// whose configuration cannot work.
func Refuse(err error) Dialer {
	return DialerFunc(func(string) (net.Conn, error) { return nil, err })
}

// ForwardTo returns a StreamHandler that dials the stream's target from
// fromHost and splices — the integration-set-2 server behaviour (the
// target names the guard the client's Tor selected).
func ForwardTo(fromHost *netem.Host) StreamHandler {
	clock := fromHost.Network().Clock()
	return func(target string, conn net.Conn) {
		down, err := fromHost.Dial(target)
		if err != nil {
			conn.Close()
			return
		}
		Splice(clock, conn, down)
	}
}

// HandleWithDialer returns a StreamHandler that opens the target through
// an arbitrary dialer and splices — the integration-set-3 server
// behaviour (the dialer is the co-located Tor client).
func HandleWithDialer(clock *netem.Clock, dial func(target string) (net.Conn, error)) StreamHandler {
	return func(target string, conn net.Conn) {
		up, err := dial(target)
		if err != nil {
			conn.Close()
			return
		}
		Splice(clock, conn, up)
	}
}
