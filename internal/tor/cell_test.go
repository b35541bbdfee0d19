package tor

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCellEncodeDecodeRoundTrip(t *testing.T) {
	f := func(circID uint32, cmd byte, payload []byte) bool {
		var c Cell
		c.CircID = circID
		c.Cmd = Command(cmd)
		copy(c.Payload[:], payload)
		wire := c.Encode(nil)
		if len(wire) != CellSize {
			return false
		}
		var d Cell
		if err := d.Decode(wire); err != nil {
			return false
		}
		return d.CircID == c.CircID && d.Cmd == c.Cmd && d.Payload == c.Payload
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellDecodeWrongSize(t *testing.T) {
	var c Cell
	if err := c.Decode(make([]byte, CellSize-1)); err == nil {
		t.Fatal("short buffer should fail")
	}
	if err := c.Decode(make([]byte, CellSize+1)); err == nil {
		t.Fatal("long buffer should fail")
	}
}

func TestRelayMarshalParseRoundTrip(t *testing.T) {
	f := func(cmd byte, streamID uint16, data []byte) bool {
		if len(data) > MaxRelayData {
			data = data[:MaxRelayData]
		}
		rc := RelayCell{Cmd: RelayCommand(cmd), StreamID: streamID, Data: data}
		p, err := marshalRelay(&rc)
		if err != nil {
			return false
		}
		got, ok := parseRelayView(p[:])
		if !ok {
			return false
		}
		return got.Cmd == rc.Cmd && got.StreamID == rc.StreamID && bytes.Equal(got.Data, rc.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelayTooLong(t *testing.T) {
	rc := RelayCell{Cmd: RelayData, Data: make([]byte, MaxRelayData+1)}
	if _, err := marshalRelay(&rc); err != ErrRelayTooLong {
		t.Fatalf("want ErrRelayTooLong, got %v", err)
	}
}

func TestRelayParseRejectsRecognized(t *testing.T) {
	rc := RelayCell{Cmd: RelayData, Data: []byte("x")}
	p, _ := marshalRelay(&rc)
	p[2] = 1 // one onion layer still on
	if _, ok := parseRelayView(p[:]); ok {
		t.Fatal("non-zero recognized must not parse")
	}
}

// handshakePair completes one client/relay handshake and returns both
// ends' view of the hop.
func handshakePair(rng *rand.Rand) (client, relay *hopLayer) {
	c, r := newHandshake(rng), newHandshake(rng)
	return c.complete(r.public()), r.complete(c.public())
}

func TestHandshakeDerivesSharedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ka, kb := handshakePair(rng)
	if *ka != *kb {
		t.Fatalf("ends disagree: %+v vs %+v", ka, kb)
	}
	if ka.fwdKey == ka.bwdKey {
		t.Fatal("directions share a key")
	}
	// A second circuit's hop gets different keys.
	if kc, _ := handshakePair(rng); kc.fwdKey == ka.fwdKey || kc.bwdKey == ka.bwdKey {
		t.Fatal("two handshakes derived the same keys")
	}
	// Client wraps forward; relay peels forward: same key and counter.
	rc := RelayCell{Cmd: RelayData, StreamID: 7, Data: []byte("onion payload")}
	p, _ := marshalRelay(&rc)
	ka.wrapForward(p[:])
	if got, ok := kb.peelForward(p[:]); !ok || string(got.Data) != "onion payload" {
		t.Fatalf("relay should recognize the wrapped cell: %+v, %v", got, ok)
	}
}

func TestDigestCountersDetectReplay(t *testing.T) {
	ka, kb := handshakePair(rand.New(rand.NewSource(2)))
	rc := RelayCell{Cmd: RelayData, StreamID: 1, Data: []byte("cell-1")}
	p1, _ := marshalRelay(&rc)
	ka.wrapForward(p1[:])
	replay := p1 // wire copy as sent
	if _, ok := kb.peelForward(p1[:]); !ok {
		t.Fatal("first cell should verify")
	}
	// The same wrapped payload replayed must fail: the counter moved on.
	if _, ok := kb.peelForward(replay[:]); ok {
		t.Fatal("replayed cell must not verify")
	}
	// So must every later cell: the ends' counters stay apart.
	p2, _ := marshalRelay(&rc)
	ka.wrapForward(p2[:])
	if _, ok := kb.peelForward(p2[:]); ok {
		t.Fatal("cell after a replay must not verify")
	}
}

func TestOnionLayering(t *testing.T) {
	// Three hops: the client wraps exit→middle→guard; each hop peels one
	// layer; only the addressed hop recognizes the cell, in both
	// directions.
	rng := rand.New(rand.NewSource(3))
	var client, relays []*hopLayer
	for i := 0; i < 3; i++ {
		kc, kr := handshakePair(rng)
		client = append(client, kc)
		relays = append(relays, kr)
	}
	for addr := 0; addr < 3; addr++ {
		rc := RelayCell{Cmd: RelayBegin, StreamID: 3, Data: []byte("web:80")}
		p, _ := marshalRelay(&rc)
		for i := addr; i >= 0; i-- {
			client[i].wrapForward(p[:])
		}
		for i := 0; i < addr; i++ {
			if got, ok := relays[i].peelForward(p[:]); ok {
				t.Fatalf("hop %d recognized a cell for hop %d: %+v", i, addr, got)
			}
		}
		got, ok := relays[addr].peelForward(p[:])
		if !ok || string(got.Data) != "web:80" || got.Cmd != RelayBegin {
			t.Fatalf("hop %d must recognize its cell: %+v, %v", addr, got, ok)
		}

		rc = RelayCell{Cmd: RelayConnected, StreamID: 3}
		p, _ = marshalRelay(&rc)
		for i := addr; i >= 0; i-- {
			relays[i].wrapBackward(p[:])
		}
		for i := 0; i <= addr; i++ {
			got, ok := client[i].peelBackward(p[:])
			if ok != (i == addr) {
				t.Fatalf("backward cell from hop %d: client recognized at hop %d = %v (%+v)", addr, i, ok, got)
			}
		}
	}
	// A cell peeled past its last layer is never recognized.
	rc := RelayCell{Cmd: RelayData, StreamID: 1}
	p, _ := marshalRelay(&rc)
	client[0].wrapForward(p[:])
	if _, ok := relays[0].peelForward(p[:]); !ok {
		t.Fatal("guard must recognize its cell")
	}
	if _, ok := relays[1].peelForward(p[:]); ok {
		t.Fatal("over-peeled cell recognized")
	}
}

func TestEncodeExtendRoundTrip(t *testing.T) {
	pub := make([]byte, HandshakeLen)
	for i := range pub {
		pub[i] = byte(i)
	}
	data := encodeExtend("relay-9:9001", pub)
	nameLen := int(data[0])
	if got := string(data[1 : 1+nameLen]); got != "relay-9:9001" {
		t.Fatalf("addr = %q", got)
	}
	if !bytes.Equal(data[1+nameLen:], pub) {
		t.Fatal("handshake mismatch")
	}
}

func TestCommandStrings(t *testing.T) {
	if CmdRelay.String() != "RELAY" || RelayBegin.String() != "BEGIN" {
		t.Fatal("stringers broken")
	}
	if Command(200).String() == "" || RelayCommand(200).String() == "" {
		t.Fatal("unknown commands need strings")
	}
}
