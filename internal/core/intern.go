package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/parcel"
	"repro/internal/transport"
)

// Cross-node action interning. Spelling action names out on the wire
// costs a string allocation per parcel (plus one per continuation) on
// every receive. Instead, each node announces its dense action table —
// the registry snapshot taken when the transport starts — inside the
// transport handshake hello. Because the hello precedes every frame on a
// connection and is re-announced on reconnect, a receiver always holds
// the sender's table before the first interned frame arrives, with no
// extra round trips or ordering protocol. Every cross-node parcel travels
// interned (fParcelI). Actions registered after the transport started
// fall outside the announced prefix and are spelled out inside interned
// frames (the codec degrades per reference, see parcel.EncodeInterned).

// Hello payload wire form: u32 count | count × (u16 len | name bytes) |
// [member section: u16 node | u32 lo | u32 hi | u16 addrlen | addr bytes].
// The transport handshake versions the payload. The member section is
// present exactly when the sender runs membership (its transport can
// grow); it carries the sender's node ID, announced locality range, and
// dial address — which is how a joining node tells an established
// machine where to dial back.
const (
	// maxInternActions bounds the announced table by entry count, and
	// helloPrefix additionally bounds it by encoded bytes (the transport
	// caps handshake payloads at transport.MaxHello). Both are enforced
	// at announce time — announce freezes exactly the prefix encodeHello
	// encodes, so sender and receiver always agree — and the count is
	// checked symmetrically in parseHello. Actions past either cap simply
	// travel in string form; interning is an optimization, never a
	// startup failure.
	maxInternActions = 1 << 16
)

// helloPrefix reports how many of names (in order) fit the announced
// table's count and byte budgets.
func helloPrefix(names []string) int {
	n := len(names)
	if n > maxInternActions {
		n = maxInternActions
	}
	size := 4
	for i := 0; i < n; i++ {
		size += 2 + len(names[i])
		if size > transport.MaxHello {
			return i
		}
	}
	return n
}

// memberHello is the parsed membership section of a hello.
type memberHello struct {
	node   int
	lo, hi int
	addr   string
}

// encodeHello encodes this node's announcement: the interning action
// table (names in dense ID order, truncated to the helloPrefix budgets)
// and, when mh is non-nil, the membership section.
func encodeHello(names []string, mh *memberHello) []byte {
	names = names[:helloPrefix(names)]
	size := 4
	for _, n := range names {
		size += 2 + len(n)
	}
	if mh != nil {
		size += 12 + len(mh.addr)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(names)))
	for _, n := range names {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n)))
		buf = append(buf, n...)
	}
	if mh != nil {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(mh.node))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(mh.lo))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(mh.hi))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(mh.addr)))
		buf = append(buf, mh.addr...)
	}
	return buf
}

// parseHello decodes a peer announcement; mh is nil when the peer sent no
// member section.
func parseHello(payload []byte) (names []string, mh *memberHello, err error) {
	if len(payload) > transport.MaxHello {
		// Defense in depth: transports already cap handshake payloads, so
		// anything larger is corrupt. Bounding here also keeps accepted
		// hellos inside the same byte budget encodeHello encodes to.
		return nil, nil, fmt.Errorf("core: %d-byte hello exceeds limit %d", len(payload), transport.MaxHello)
	}
	if len(payload) < 4 {
		return nil, nil, fmt.Errorf("core: short hello payload (%d bytes)", len(payload))
	}
	count := int(binary.LittleEndian.Uint32(payload))
	src := payload[4:]
	if count > maxInternActions {
		return nil, nil, fmt.Errorf("core: hello announces %d actions, limit %d", count, maxInternActions)
	}
	// Every name takes at least its 2-byte length, so the bytes present
	// bound the table: a corrupt count cannot force a large allocation.
	names = make([]string, 0, min(count, len(src)/2))
	for i := 0; i < count; i++ {
		if len(src) < 2 {
			return nil, nil, fmt.Errorf("core: hello truncated at action %d", i)
		}
		n := int(binary.LittleEndian.Uint16(src))
		src = src[2:]
		if len(src) < n {
			return nil, nil, fmt.Errorf("core: hello action %d truncated", i)
		}
		names = append(names, string(src[:n]))
		src = src[n:]
	}
	if len(src) > 0 {
		if len(src) < 12 {
			return nil, nil, fmt.Errorf("core: hello member section truncated (%d bytes)", len(src))
		}
		m := &memberHello{
			node: int(binary.LittleEndian.Uint16(src[0:2])),
			lo:   int(binary.LittleEndian.Uint32(src[2:6])),
			hi:   int(binary.LittleEndian.Uint32(src[6:10])),
		}
		alen := int(binary.LittleEndian.Uint16(src[10:12]))
		src = src[12:]
		if len(src) < alen {
			return nil, nil, fmt.Errorf("core: hello member address truncated")
		}
		m.addr = string(src[:alen])
		src = src[alen:]
		mh = m
	}
	if len(src) != 0 {
		return nil, nil, fmt.Errorf("core: %d trailing hello bytes", len(src))
	}
	return names, mh, nil
}

// senderTable is the parcel.Table used when encoding toward a peer: it
// covers exactly the prefix of the local registry this node announced at
// transport start, so a position is meaningful to every peer that heard
// the announcement.
type senderTable struct {
	set *actionSet
	n   int
}

// IDOf reports the 0-based wire position of name within the announced
// prefix.
func (t *senderTable) IDOf(name string) (uint32, bool) {
	id, ok := t.set.byName[name] // 1-based dense ID
	if !ok || int(id) > t.n {
		return 0, false
	}
	return id - 1, true
}

// ActionOf is the decode half, unused on the sender side.
func (t *senderTable) ActionOf(uint32) (string, uint32, bool) { return "", parcel.NoAID, false }

// recvTable is the parcel.Table used when decoding a peer's interned
// frames: position → the peer's announced name, pre-resolved to the local
// dense ID where the action is registered here too. Immutable once
// published, so decodes read it without locks.
type recvTable struct {
	names []string
	aids  []uint32
}

// IDOf is the encode half, unused on the receiver side.
func (t *recvTable) IDOf(string) (uint32, bool) { return 0, false }

// ActionOf resolves a received wire position.
func (t *recvTable) ActionOf(id uint32) (string, uint32, bool) {
	if int(id) >= len(t.names) {
		return "", parcel.NoAID, false
	}
	return t.names[id], t.aids[id], true
}

// internState is the distributed layer's interning view: the table we
// announced and, per peer, the table they announced to us. The peer
// slice is an immutable snapshot grown copy-on-write as nodes join, so
// per-parcel table lookups stay single atomic loads.
type internState struct {
	our   atomic.Pointer[senderTable]
	mu    sync.Mutex // serializes peer-table growth/replacement
	peers atomic.Pointer[[]*recvTable]
}

func newInternState(nodes int) *internState {
	s := &internState{}
	tabs := make([]*recvTable, nodes)
	s.peers.Store(&tabs)
	return s
}

// peerTable returns node's announced decode table (nil if none).
func (s *internState) peerTable(node int) *recvTable {
	tabs := *s.peers.Load()
	if node < 0 || node >= len(tabs) {
		return nil
	}
	return tabs[node]
}

// setPeerTable installs node's decode table, growing the
// snapshot as needed.
func (s *internState) setPeerTable(node int, t *recvTable) {
	if node < 0 || node >= transport.MaxJoinNodes {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.peers.Load()
	size := len(old)
	if node >= size {
		size = node + 1
	}
	tabs := make([]*recvTable, size)
	copy(tabs, old)
	tabs[node] = t
	s.peers.Store(&tabs)
}

// announce freezes the prefix of the registry snapshot this node tells
// its peers about — the same helloPrefix-capped prefix encodeHello
// encodes, so a position this node ever puts on the wire is always inside
// every peer's copy of the table.
func (s *internState) announce(set *actionSet) {
	s.our.Store(&senderTable{set: set, n: helloPrefix(set.names)})
}

// onHello installs a peer's announcement, resolving each announced name
// against the local registry once so per-parcel decodes are pure slice
// reads. Handshakes repeat on reconnection; the last table wins, which is
// correct because a peer's announcement never changes within one process
// lifetime. A membership section from an unknown node is a join: it is
// admitted (transport, membership map, AGAS growth) before the intern
// table is stored, so by the time the joiner's first frame arrives the
// machine routes to it.
func (d *distState) onHello(from int, payload []byte) {
	if from < 0 || from >= transport.MaxJoinNodes {
		return
	}
	names, mh, err := parseHello(payload)
	if err != nil {
		d.rt.recordError(fmt.Errorf("core: bad hello from node %d: %w", from, err))
		return
	}
	if mh != nil && mh.node == from {
		d.onMemberHello(from, mh)
	}
	t := &recvTable{names: names, aids: make([]uint32, len(names))}
	for i, nm := range names {
		if _, aid, ok := d.rt.acts.lookup(nm); ok {
			t.aids[i] = aid
		} else {
			t.aids[i] = parcel.NoAID
		}
	}
	d.intern.setPeerTable(from, t)
}

// decodeTableFor returns the table an interned frame from node decodes
// against, or nil when the peer never announced one (a protocol
// violation for fParcelI frames, handled by the caller).
func (d *distState) decodeTableFor(node int) parcel.Table {
	if t := d.intern.peerTable(node); t != nil {
		return t
	}
	return nil
}
