package pt_test

import (
	"io"
	"net"
	"testing"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// drain reads s until an error and returns the bytes and that error.
func drain(s *pt.Stream) (string, error) {
	var got []byte
	buf := make([]byte, 4)
	for {
		n, err := s.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			return string(got), err
		}
	}
}

// expectDrain checks that s yields want and then wantErr.
func expectDrain(t *testing.T, s *pt.Stream, want string, wantErr error) {
	t.Helper()
	if got, err := drain(s); got != want || err != wantErr {
		t.Fatalf("drained %q, %v; want %q, %v", got, err, want, wantErr)
	}
}

func TestStream(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, clock *netem.Clock, s *pt.Stream)
	}{
		{"reorder", func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			s.Deliver(2, []byte("cc"))
			s.Deliver(0, []byte("aa"))
			s.Deliver(1, []byte("bb"))
			s.Fail()
			expectDrain(t, s, "aabbcc", io.EOF)
		}},
		{"duplicate and stale seqs ignored", func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			s.Deliver(0, []byte("x"))
			s.Deliver(0, []byte("y")) // stale: already delivered
			s.Deliver(2, []byte("z"))
			s.Deliver(2, []byte("w")) // duplicate of a held message
			s.Deliver(1, []byte("m"))
			s.Fail()
			expectDrain(t, s, "xmz", io.EOF)
		}},
		{"close drains then EOF", func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			s.Append([]byte("tail"))
			s.Close()
			s.Append([]byte("+late"))
			expectDrain(t, s, "tail+late", io.EOF)
			if !s.Closed() {
				t.Fatal("Close must mark the stream closed")
			}
		}},
		{"fin count", func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			s.Deliver(1, []byte("b"))
			s.Fin(2)
			// Message 0 is still missing: no EOF yet.
			s.SetReadDeadline(clock.VirtualDeadline(time.Second))
			expectDrain(t, s, "", netem.ErrTimeout)
			s.SetReadDeadline(time.Time{})
			s.Deliver(0, []byte("a"))
			expectDrain(t, s, "ab", io.EOF)
		}},
		{"fin without sequence numbers", func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			s.Append([]byte("last"))
			s.Fin(0)
			expectDrain(t, s, "last", io.EOF)
		}},
		{"read deadline", func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			s.SetDeadline(clock.VirtualDeadline(2 * time.Second))
			_, err := s.Read(make([]byte, 8))
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				t.Fatalf("read: %v; want a timeout net.Error", err)
			}
			if clock.Now() != 2*time.Second {
				t.Fatalf("timed out at %v, want 2s", clock.Now())
			}
		}},
		{"write blocks at the cap until Take", func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			type result struct {
				n   int
				err error
				at  time.Duration
			}
			done := netem.NewChan[result](clock, 1)
			clock.Go(func() {
				n, err := s.Write([]byte("0123456789abcdefghij"))
				done.Send(result{n, err, clock.Now()})
			})
			var taken []byte
			for i := 0; i < 3; i++ {
				clock.Sleep(time.Second)
				if want := []int{8, 8, 4}[i]; s.Queued() != want {
					t.Fatalf("at %v: %d queued, want %d", clock.Now(), s.Queued(), want)
				}
				taken = append(taken, s.Take(8)...)
			}
			r, _ := done.Recv()
			if r.n != 20 || r.err != nil || r.at != 2*time.Second {
				t.Fatalf("write = %d, %v at %v; want 20, nil at 2s", r.n, r.err, r.at)
			}
			if string(taken) != "0123456789abcdefghij" || s.Take(8) != nil {
				t.Fatalf("took %q", taken)
			}
		}},
		{"write after close fails", func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			s.Close()
			if n, err := s.Write([]byte("x")); n != 0 || err != pt.ErrStreamClosed {
				t.Fatalf("write after close = %d, %v", n, err)
			}
		}},
		{"close wakes a blocked writer", func(t *testing.T, clock *netem.Clock, s *pt.Stream) {
			done := netem.NewChan[int](clock, 1)
			clock.Go(func() {
				n, err := s.Write(make([]byte, 12))
				if err != pt.ErrStreamClosed {
					t.Errorf("blocked write: %v", err)
				}
				done.Send(n)
			})
			clock.Sleep(time.Second)
			s.Fail()
			if n, _ := done.Recv(); n != 8 {
				t.Fatalf("blocked write reported %d bytes, want the 8 queued", n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := netem.NewClock()
			s := pt.NewStream(clock, "local", "remote", 8)
			if s.LocalAddr().String() != "local" || s.RemoteAddr().String() != "remote" {
				t.Fatalf("addrs %v, %v", s.LocalAddr(), s.RemoteAddr())
			}
			tc.run(t, clock, s)
		})
	}
}
