package stegotorus

import (
	"bytes"
	"io"
	"net"
	"testing"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// TestBulkOverManyConns reproduces the ablation setup: a large one-way
// transfer spliced through the server with several fan-out conns.
func TestBulkOverManyConns(t *testing.T) {
	for _, conns := range []int{1, 2, 4, 8} {
		conns := conns
		t.Run(string(rune('0'+conns)), func(t *testing.T) {
			n := netem.New(netem.WithSeed(int64(conns)))
			client := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
			server := n.MustAddHost(netem.HostConfig{Name: "server", Location: geo.Frankfurt})
			sink := n.MustAddHost(netem.HostConfig{Name: "sink", Location: geo.NewYork})

			blob := bytes.Repeat([]byte("bulk-data!"), 26<<10) // 260 KB
			ln, err := sink.Listen(80)
			if err != nil {
				t.Fatal(err)
			}
			n.Go(func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				// Consume the request line, then stream the blob.
				buf := make([]byte, 64)
				c.Read(buf)
				c.Write(blob)
				if cw, ok := c.(interface{ CloseWrite() error }); ok {
					cw.CloseWrite()
				}
			})

			cfg := Config{Seed: int64(conns), Conns: conns}
			srv, err := StartServer(server, 8080, cfg, pt.ForwardTo(server))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			d := NewDialer(client, srv.Addr(), cfg)
			conn, err := d.Dial("sink:80")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("GET\n")); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(blob))
			if _, err := io.ReadFull(conn, got); err != nil {
				t.Fatalf("conns=%d: %v", conns, err)
			}
			if !bytes.Equal(got, blob) {
				t.Fatalf("conns=%d corrupted", conns)
			}
			var _ net.Conn = conn
		})
	}
}
