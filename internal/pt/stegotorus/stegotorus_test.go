package stegotorus

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"ptperf/internal/netem"
)

func TestCoverCodecRoundTrip(t *testing.T) {
	f := func(block []byte) bool {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := encodeCover(w, block); err != nil {
			return false
		}
		got, err := decodeCover(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return bytes.Equal(got, block)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverLooksLikeHTTP(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := encodeCover(w, []byte("secret tor cell")); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "POST /images/upload HTTP/1.1\r\n") {
		t.Fatalf("cover not HTTP-shaped: %q", text[:40])
	}
	if strings.Contains(text, "secret tor cell") {
		t.Fatal("payload leaked in cleartext")
	}
	if !strings.Contains(text, "Content-Length:") {
		t.Fatal("cover lacks Content-Length")
	}
}

func TestDecodeCoverRejectsGarbage(t *testing.T) {
	if _, err := decodeCover(bufio.NewReader(strings.NewReader("GET / HTTP/1.1\r\n\r\n"))); err == nil {
		t.Fatal("non-cover request must be rejected")
	}
}

// newTestSession returns a chopped-stream endpoint with no fan-out conns,
// so blocks reach it only through Deliver.
func newTestSession() *chopConn {
	return newChopConn(netem.NewClock(), Config{}.withDefaults(), 1, nil, 1)
}

func TestSessionReorders(t *testing.T) {
	s := newTestSession()
	s.Deliver(2, []byte("cc"))
	s.Deliver(0, []byte("aa"))
	s.Deliver(1, []byte("bb"))
	buf := make([]byte, 6)
	n, err := s.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "aabbcc" {
		t.Fatalf("got %q", buf[:n])
	}
}

func TestSessionDuplicateIgnored(t *testing.T) {
	s := newTestSession()
	s.Deliver(0, []byte("x"))
	s.Deliver(0, []byte("y")) // duplicate seq: ignored
	s.Fin(1)
	buf := make([]byte, 4)
	n, _ := s.Read(buf)
	if string(buf[:n]) != "x" {
		t.Fatalf("got %q", buf[:n])
	}
	if _, err := s.Read(buf); err != io.EOF {
		t.Fatalf("want EOF after the announced block, got %v", err)
	}
}

func TestSessionCloseDrainsThenEOF(t *testing.T) {
	s := newTestSession()
	s.Deliver(0, []byte("tail"))
	s.Close()
	buf := make([]byte, 8)
	n, err := s.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("drain failed: %q %v", buf[:n], err)
	}
	if _, err := s.Read(buf); err == nil {
		t.Fatal("want EOF after drain")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Conns != DefaultConns || c.MinBlock != DefaultMinBlock || c.MaxBlock != DefaultMaxBlock {
		t.Fatalf("defaults: %+v", c)
	}
	c2 := Config{MinBlock: 500, MaxBlock: 100}.withDefaults()
	if c2.MaxBlock < c2.MinBlock {
		t.Fatal("max must not stay below min")
	}
}

func TestCutPrefixFold(t *testing.T) {
	if rest, ok := cutPrefixFold("Content-Length: 42", "content-length:"); !ok || strings.TrimSpace(rest) != "42" {
		t.Fatalf("fold failed: %q %v", rest, ok)
	}
	if _, ok := cutPrefixFold("Host: x", "content-length:"); ok {
		t.Fatal("wrong header matched")
	}
}
