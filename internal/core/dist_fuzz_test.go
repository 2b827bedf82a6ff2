package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/agas"
)

// manyActionNames builds n distinct action names for hello-table seeds.
func manyActionNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("app.action.%03d", i)
	}
	return names
}

// FuzzDistControlDecoders feeds the distributed layer's hand-rolled
// binary decoders — the migration frame header, moved verdicts, RPC
// outcomes, drain replies, handshake hellos, the fAck receipt count and
// the parcel frame's receipt prefix — arbitrary bytes. They consume
// untrusted socket data, so they must never panic, and any accepted input
// must re-encode to a form that decodes identically. A receipt count of
// any size must release at most the parcels outstanding.
func FuzzDistControlDecoders(f *testing.F) {
	g := agas.GID{Home: 3, Kind: agas.KindData, Seq: 99}
	f.Add(encodeMigHeader(fMigrate, 7, g, 2, 5, 0))
	f.Add(append(encodeMigHeader(fDirUpdate, 1, g, 0, 1, 4), 0xde, 0xad, 0xbe, 0xef))
	f.Add(encodeHello([]string{"px.lco.set", "app.frob"}, nil))
	f.Add(encodeHello([]string{"px.lco.set", "app.frob"}, nil)[:9]) // truncated table
	f.Add(encodeHello([]string{"px.lco.set"}, &memberHello{node: 3, lo: 12, hi: 16, addr: "127.0.0.1:9999"}))
	f.Add(encodeHello(nil, &memberHello{node: 1, lo: 4, hi: 8, addr: "[::1]:70000"}))
	f.Add(encodeBeat(0xdeadbeefcafef00d))
	f.Add(encodeDead(7))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(bytes.Repeat([]byte{0x00}, 40))
	// Truncation and padding around each decoder's exact frame size, plus
	// a hello carrying a large interning table — the shapes the sharded
	// transport's per-lane hello re-delivery makes more frequent.
	f.Add(encodeBeat(1)[:4])
	f.Add(append(encodeDead(3), 0x00))
	f.Add(append(encodeMigHeader(fMigrate, ^uint64(0), g, -1, ^uint64(0), 0), 0xff))
	f.Add(encodeHello(manyActionNames(64), nil))
	f.Add(encodeHello([]string{""}, &memberHello{node: 0, lo: 0, hi: 0, addr: ""}))
	f.Add(encodeHello(nil, nil))
	f.Add(hugeCountHello)
	// Receipt counts: 0, 1, the largest uvarint, a truncated varint, a
	// count larger than any outstanding total, and a parcel body behind
	// its receipt prefix.
	f.Add(binary.AppendUvarint(nil, 0))
	f.Add(binary.AppendUvarint(nil, 1))
	f.Add(binary.AppendUvarint(nil, math.MaxUint64))
	f.Add([]byte{0x80})
	f.Add(binary.AppendUvarint(nil, 1000))
	f.Add(append(binary.AppendUvarint(nil, 2), 0x01, 0x02, 0x03))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Receipts: an accepted count re-encodes to a count that decodes
		// identically, and settling it against 3 outstanding parcels
		// releases min(count, 3).
		if n, ok := decodeAckCount(data); ok {
			if n2, ok2 := decodeAckCount(binary.AppendUvarint(nil, n)); !ok2 || n2 != n {
				t.Fatalf("receipt count %d did not round trip", n)
			}
			ps := &peerState{outstanding: 3}
			want := 3
			if n < 3 {
				want = int(n)
			}
			if k := ps.settle(n); k != want || ps.outstanding != 3-want {
				t.Fatalf("receipt of %d released %d of 3, left %d outstanding", n, k, ps.outstanding)
			}
		}
		if n, rest, ok := splitReceipts(data); ok {
			if len(rest) >= len(data) {
				t.Fatalf("receipt prefix consumed no bytes")
			}
			re := append(binary.AppendUvarint(nil, n), rest...)
			if n2, rest2, ok2 := splitReceipts(re); !ok2 || n2 != n || !bytes.Equal(rest2, rest) {
				t.Fatalf("receipt prefix %d did not round trip", n)
			}
		}
		// Migration header: accepted inputs must survive a re-encode.
		if xid, g, loc, gen, rest, ok := decodeMigHeader(data); ok {
			re := append(encodeMigHeader(fMigrate, xid, g, loc, gen, len(rest)), rest...)
			xid2, g2, loc2, gen2, rest2, ok2 := decodeMigHeader(re[1:])
			if !ok2 || xid2 != xid || g2 != g || loc2 != loc || gen2 != gen || !bytes.Equal(rest2, rest) {
				t.Fatalf("migration header did not round trip: %v %v %d %d", g, g2, loc, loc2)
			}
		}
		// The remaining decoders just must not panic or over-read.
		decodeMovedVerdict(data)
		if xid, rep, ok := decodeOutcome(data); ok && !rep.ok && len(rep.msg) > len(data) {
			t.Fatalf("outcome %d message longer than input", xid)
		}
		decodeDrainReply(1, data)
		decodeBeat(data)
		decodeDead(data)
		// Accepted hellos are canonical: re-encoding reproduces the input.
		if names, mh, err := parseHello(data); err == nil {
			if re := encodeHello(names, mh); !bytes.Equal(re, data) {
				t.Fatalf("hello did not round trip: %x vs %x", data, re)
			}
		}
	})
}
