package pt

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"ptperf/internal/netem"
)

// ErrStreamClosed is returned by Write on a failed or closed Stream.
var ErrStreamClosed = errors.New("pt: stream closed")

// Stream is the byte stream a message-based transport (meek, dnstt,
// camoufler, stegotorus, marionette) carries over its communication
// primitive. The transport turns wire messages into inbound bytes
// (Append, or Deliver by sequence number) and drains outbound bytes
// with Take; the Stream owns everything else a net.Conn needs: the
// inbound buffer and reorder map, end-of-stream accounting, the read
// deadline, and the bounded outbound queue whose Write backpressure
// paces the writer at the transport's cap.
//
// One mutex and one netem.Cond guard both directions. Write never
// broadcasts: the transports' loops poll Take at their own cadence, so
// only inbound data, end of stream, a drained queue, a failure and a
// deadline change wake parked readers and writers.
type Stream struct {
	clock         *netem.Clock
	local, remote streamAddr
	maxQueue      int

	mu   sync.Mutex
	cond *netem.Cond
	in   []byte
	// next is the sequence number Deliver appends next; held keeps
	// messages that arrived ahead of it.
	next uint64
	held map[uint64][]byte
	// fin is total+1 once Fin announced the message total, 0 before.
	fin    uint64
	closed bool
	rdl    time.Time
	out    []byte
}

var _ net.Conn = (*Stream)(nil)

// NewStream returns a Stream between the named endpoints whose Write
// blocks while maxQueue bytes wait for Take.
func NewStream(clock *netem.Clock, local, remote string, maxQueue int) *Stream {
	s := &Stream{clock: clock, local: streamAddr(local), remote: streamAddr(remote), maxQueue: maxQueue}
	s.cond = netem.NewCond(clock, &s.mu)
	return s
}

// Append adds in-order inbound bytes.
func (s *Stream) Append(p []byte) {
	if len(p) == 0 {
		return
	}
	s.mu.Lock()
	s.in = append(s.in, p...)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Deliver adds inbound message seq (numbered from 0), holding it until
// every earlier message is in. Stale and duplicate seqs are ignored; a
// lost message leaves a permanent gap.
func (s *Stream) Deliver(seq uint64, p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq > s.next {
		if s.held == nil {
			s.held = make(map[uint64][]byte)
		}
		if _, dup := s.held[seq]; !dup {
			s.held[seq] = append([]byte(nil), p...)
		}
		return
	}
	if seq < s.next {
		return
	}
	s.in = append(s.in, p...)
	for s.next++; ; s.next++ {
		held, ok := s.held[s.next]
		if !ok {
			break
		}
		delete(s.held, s.next)
		s.in = append(s.in, held...)
	}
	s.cond.Broadcast()
}

// Fin announces that the peer sent total messages: Read reports EOF
// once all of them are delivered. A transport without sequence numbers
// calls Fin(0) for an immediate end of stream after the buffered bytes.
func (s *Stream) Fin(total uint64) {
	s.mu.Lock()
	s.fin = total + 1
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Fail tears the stream down: Read drains the buffered bytes and then
// reports EOF, Write fails. Inbound bytes still arriving are buffered.
func (s *Stream) Fail() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Closed reports whether Fail (or Close) was called.
func (s *Stream) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// ReapWhenStale arms the idle-session reaper of a server-side stream:
// an inline event that checks the stream every staleness from now, at
// creation + k·staleness, and re-arms itself. A check on a closed
// stream stops the reaper; one where stale(now) holds fails the stream,
// which sends EOF into its handler and tears the spliced chain down.
// Without it a client that vanishes (crash, censor cut, parked circuit)
// leaks the whole server-side circuit forever. stale runs inside the
// event, so it must not park.
func (s *Stream) ReapWhenStale(staleness time.Duration, stale func(now time.Duration) bool) {
	var check func()
	check = func() {
		if s.Closed() {
			return
		}
		now := s.clock.Now()
		if stale(now) {
			s.Fail()
			return
		}
		s.clock.EventAt(now+staleness, check)
	}
	s.clock.EventAt(s.clock.Now()+staleness, check)
}

// Take pops at most limit queued outbound bytes, nil when none wait.
func (s *Stream) Take(limit int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := min(len(s.out), limit)
	if n == 0 {
		return nil
	}
	chunk := append([]byte(nil), s.out[:n]...)
	s.out = s.out[n:]
	s.cond.Broadcast()
	return chunk
}

// Queued reports the outbound bytes waiting for Take.
func (s *Stream) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.out)
}

// Read implements net.Conn: it drains the inbound buffer, then reports
// io.EOF after Fail or a complete Fin, or netem.ErrTimeout at the read
// deadline.
func (s *Stream) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.in) == 0 {
		if s.closed || (s.fin > 0 && s.next >= s.fin-1) {
			return 0, io.EOF
		}
		if s.clock.Expired(s.rdl) {
			return 0, netem.ErrTimeout
		}
		s.cond.WaitDeadline(s.rdl)
	}
	n := copy(p, s.in)
	s.in = s.in[n:]
	return n, nil
}

// Write implements net.Conn: it queues p for Take, blocking while the
// queue holds maxQueue bytes.
func (s *Stream) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	written := 0
	for len(p) > 0 {
		for len(s.out) >= s.maxQueue && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			return written, ErrStreamClosed
		}
		n := min(len(p), s.maxQueue-len(s.out))
		s.out = append(s.out, p[:n]...)
		written += n
		p = p[n:]
	}
	return written, nil
}

// Close implements net.Conn as Fail.
func (s *Stream) Close() error {
	s.Fail()
	return nil
}

// LocalAddr implements net.Conn.
func (s *Stream) LocalAddr() net.Addr { return s.local }

// RemoteAddr implements net.Conn.
func (s *Stream) RemoteAddr() net.Addr { return s.remote }

// SetDeadline implements net.Conn; only reads observe deadlines.
func (s *Stream) SetDeadline(t time.Time) error { return s.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn.
func (s *Stream) SetReadDeadline(t time.Time) error {
	s.mu.Lock()
	s.rdl = t
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn as a no-op: writes wait only for
// queue space, which the transport's loop frees at its own cadence.
func (s *Stream) SetWriteDeadline(time.Time) error { return nil }

type streamAddr string

func (streamAddr) Network() string  { return "pt" }
func (a streamAddr) String() string { return string(a) }
