package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// hsHeader hand-encodes a handshake header in the current layout with
// an arbitrary version field: magic | version | node | lo | hi | u32 hello
// len | hello | u16 lane.
func hsHeader(version uint16, node, lo, hi uint32, hello []byte, lane uint16) []byte {
	b := binary.LittleEndian.AppendUint32(nil, hsMagic)
	b = binary.LittleEndian.AppendUint16(b, version)
	b = binary.LittleEndian.AppendUint32(b, node)
	b = binary.LittleEndian.AppendUint32(b, lo)
	b = binary.LittleEndian.AppendUint32(b, hi)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(hello)))
	b = append(b, hello...)
	return binary.LittleEndian.AppendUint16(b, lane)
}

// FuzzLaneHandshake drives readHandshake — the header parser, including
// the lane field — with arbitrary bytes. The invariants under attack: no
// panic, no giant allocation from a corrupt hello length, and, on
// accepted headers, a node and lane within bounds — a malformed lane
// announcement must be rejected, never clamped or passed through, or it
// could cross-wire two peers' ordered streams.
func FuzzLaneHandshake(f *testing.F) {
	f.Add(hsHeader(hsVersion, 1, 0, 2, nil, 0))
	f.Add(hsHeader(hsVersion, 1, 0, 2, []byte("hello"), 0))
	f.Add(hsHeader(hsVersion, 1, 0, 2, []byte("hello"), 3))
	f.Add(hsHeader(hsVersion, 1, 0, 2, nil, MaxLanes))           // lane out of bounds
	f.Add(hsHeader(hsVersion, 0, 0, 2, nil, 0))                  // self node
	f.Add(hsHeader(hsVersion, MaxJoinNodes, 0, 2, nil, 0))       // node out of bounds
	f.Add(hsHeader(hsVersion+1, 1, 0, 2, nil, 0))                // newer version
	f.Add(hsHeader(hsVersion, 2, 5, 3, nil, 1))                  // inverted range
	f.Add([]byte{0x50, 0x58, 0x54, 0x50})                        // magic only, truncated
	f.Add(binary.LittleEndian.AppendUint32(nil, 0))              // wrong magic
	f.Add(hsHeader(hsVersion, 1, 0, 2, []byte("hello"), 0)[:25]) // truncated inside the hello
	f.Add(hsHeader(hsVersion-1, 1, 0, 2, nil, 0))                // older version
	f.Add(hsHeader(4, 1, 0, 2, []byte("hello"), 0))              // v4: per-parcel receipts
	f.Add(hsHeader(6, 1, 0, 2, []byte("hello"), 0))              // v6: not yet defined
	f.Add(hsHeader(5, 1, 0, 2, []byte("hello"), 0))              // v5: cumulative receipts

	f.Fuzz(func(t *testing.T, data []byte) {
		// Fresh state per input keeps crashers self-contained: growPeers
		// from one accepted joiner must not change the next input's
		// verdict. Ranges stay unconfigured so acceptance depends on the
		// bytes alone (the range cross-check has its own unit test).
		tt, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0",
			Peers: make([]string, 3), DisableSameHost: true})
		if err != nil {
			t.Skip("listen unavailable")
		}
		defer tt.Close()
		node, hello, lane, err := tt.readHandshake(bytes.NewReader(data))
		if err != nil {
			return
		}
		if v := binary.LittleEndian.Uint16(data[4:6]); v != hsVersion {
			t.Fatalf("accepted version %d, want exactly %d", v, hsVersion)
		}
		if node <= 0 || node >= MaxJoinNodes {
			t.Fatalf("accepted node %d outside (0,%d)", node, MaxJoinNodes)
		}
		if lane < 0 || lane >= MaxLanes {
			t.Fatalf("accepted lane %d outside [0,%d)", lane, MaxLanes)
		}
		if len(hello) > MaxHello {
			t.Fatalf("accepted %d-byte hello beyond limit %d", len(hello), MaxHello)
		}
		// An accepted header must round-trip through the encoder: our own
		// header for the accepted lane must parse back cleanly.
		echo := tt.handshakeBytes(lane)
		if _, _, lane2, err := tt.readHandshake(bytes.NewReader(mutateSelf(echo))); err != nil {
			t.Fatalf("own header rejected: %v", err)
		} else if lane2 != lane {
			t.Fatalf("own header round-trip: lane=%d, want %d", lane2, lane)
		}
	})
}

// mutateSelf rewrites the node field of an encoded handshake from 0
// (self, which readHandshake rejects) to 1, so the round-trip check
// exercises the parse rather than the self-connection guard.
func mutateSelf(b []byte) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(out[6:10], 1)
	return out
}
