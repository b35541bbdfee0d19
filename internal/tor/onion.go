package tor

import (
	"encoding/binary"
	"math/rand"
)

// HandshakeLen is the size of each half of the circuit handshake: the
// length of an X25519 public key, as in Tor's ntor handshake.
const HandshakeLen = 32

// hopLayer is one hop's share of the structural onion model: a relay
// cell carries its onion state in two relay-header fields instead of in
// encrypted bytes.
//
//   - "recognized" counts the layers still on the cell. Wrapping adds
//     one and peeling removes one, so it reaches zero exactly at the
//     addressed hop.
//   - The digest field is a sequence tag. Every wrap or peel XORs in
//     layerTag(hop key, that hop's counter in that direction) and
//     advances the counter, as a CTR keystream advances one cell. The
//     tag returns to zero only if each hop peeled with the counter its
//     layer was wrapped with.
//
// A hop recognizes a cell when no layer is left and the tag is zero. A
// lost, duplicated, replayed or reordered cell leaves one hop's two
// counters apart, so no later cell through that hop verifies: the
// circuit fails at the cell where layered AES-CTR would start
// decrypting garbage. No result reads cryptographic output or cost
// (DESIGN.md, "Structural onion model"), so none is executed.
//
// Concurrency: each direction is driven by exactly one goroutine or
// inline event stream: forward by the client under sendMu and a relay's
// serve loop, backward by the relay under bwdMu and the client's reader.
type hopLayer struct {
	fwdKey, bwdKey uint64
	fwdCtr, bwdCtr uint64
}

// wrapForward adds this hop's forward layer (client, for each hop from
// the addressed one back to the guard); wrapBackward adds its backward
// layer (relay, for each backward cell it originates or passes on).
func (h *hopLayer) wrapForward(p []byte)  { wrapLayer(p, h.fwdKey, &h.fwdCtr) }
func (h *hopLayer) wrapBackward(p []byte) { wrapLayer(p, h.bwdKey, &h.bwdCtr) }

// peelForward (relay) and peelBackward (client) remove this hop's layer
// and return the cell if it is addressed here; its Data is a view into p.
func (h *hopLayer) peelForward(p []byte) (RelayCell, bool) {
	return peelLayer(p, h.fwdKey, &h.fwdCtr)
}
func (h *hopLayer) peelBackward(p []byte) (RelayCell, bool) {
	return peelLayer(p, h.bwdKey, &h.bwdCtr)
}

// wrapLayer adds one layer to relay payload p under key and counter.
func wrapLayer(p []byte, key uint64, ctr *uint64) {
	binary.BigEndian.PutUint16(p[1:3], binary.BigEndian.Uint16(p[1:3])+1)
	foldTag(p, key, ctr)
}

// peelLayer removes one layer from relay payload p and parses the cell
// if no layer is left and the tag verifies. A cell peeled past zero
// layers wraps to 0xffff and is never recognized again.
func peelLayer(p []byte, key uint64, ctr *uint64) (RelayCell, bool) {
	layers := binary.BigEndian.Uint16(p[1:3]) - 1
	binary.BigEndian.PutUint16(p[1:3], layers)
	if foldTag(p, key, ctr) != 0 || layers != 0 {
		return RelayCell{}, false
	}
	return parseRelayView(p)
}

// foldTag XORs one layer operation into the tag, advances the counter
// and returns the new tag.
func foldTag(p []byte, key uint64, ctr *uint64) uint32 {
	tag := binary.BigEndian.Uint32(p[5:9]) ^ layerTag(key, *ctr)
	binary.BigEndian.PutUint32(p[5:9], tag)
	*ctr++
	return tag
}

// layerTag is a keyed bijection of the counter's low 32 bits (the
// lowbias32 integer hash): under one key, counters less than 2^32 apart
// never share a tag.
func layerTag(key, ctr uint64) uint32 {
	x := uint32(ctr) ^ uint32(key)
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x ^ uint32(key>>32)
}

// handshake is one half of the circuit handshake used by CREATE/CREATED
// and EXTEND/EXTENDED: 32 random bytes sent as the public half, so the
// exchange costs the same bytes and round trips as ntor. The simulation
// authenticates neither side (see package comment).
type handshake struct {
	half [HandshakeLen]byte
}

// newHandshake draws the initiator's or responder's half from a
// deterministic stream seeded by the caller.
func newHandshake(rng *rand.Rand) *handshake {
	hs := new(handshake)
	for i := range hs.half {
		hs.half[i] = byte(rng.Intn(256))
	}
	return hs
}

// public returns the half for the wire.
func (hs *handshake) public() []byte { return hs.half[:] }

// complete derives the hop's per-direction keys from both halves (peer
// is HandshakeLen bytes: a CREATE/CREATED payload or a length-checked
// EXTENDED). The mix is symmetric, so client and relay agree, and the
// keys differ per hop, per direction and per circuit because every half
// is fresh.
func (hs *handshake) complete(peer []byte) *hopLayer {
	s := halfKey(hs.half[:]) ^ halfKey(peer)
	return &hopLayer{fwdKey: mix64(s ^ 'f'), bwdKey: mix64(s ^ 'b')}
}

// halfKey folds one handshake half into 64 bits.
func halfKey(half []byte) uint64 {
	var k uint64
	for i := 0; i < HandshakeLen; i += 8 {
		k = mix64(k ^ binary.LittleEndian.Uint64(half[i:]))
	}
	return k
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// readHandshake extracts the handshake half from a cell payload.
func readHandshake(p *[PayloadSize]byte) []byte {
	return append([]byte(nil), p[:HandshakeLen]...)
}

// writeHandshake places a handshake half into a cell payload.
func writeHandshake(p *[PayloadSize]byte, pub []byte) {
	copy(p[:HandshakeLen], pub)
}
