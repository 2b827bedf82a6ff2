package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agas"
	"repro/internal/parcel"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Distributed frame types. Every transport frame begins with one type
// byte. All kinds — including migration payloads — ride the transport's
// group-commit batching: a MIGRATE frame posted while a parcel batch's
// write is in flight simply joins the next batch. Kind 1, the retired
// string-form parcel, stays unassigned.
const (
	fAck        = byte(2)  // cumulative receipt: uvarint n; releases n of the sender's work units
	fDrain      = byte(3)  // quiescence probe: u64 seq
	fDrainReply = byte(4)  // probe answer: u64 seq | i64 pending | u64 sent | u64 recv
	fGoodbye    = byte(5)  // node departure: u64 final sent | u64 final recv
	fHalt       = byte(6)  // cooperative machine-wide halt request
	fAckMoved   = byte(7)  // one receipt + moved verdict: gid | u32 owner | u64 gen
	fMigrate    = byte(8)  // object payload push: u64 xid | gid | u32 to | u64 gen | value record
	fMigrateOK  = byte(9)  // migrate push outcome: u64 xid | u8 ok | str error
	fDirUpdate  = byte(10) // home-directory commit request: u64 xid | gid | u32 owner | u64 gen
	fDirOK      = byte(11) // commit outcome: u64 xid | u8 ok | str error
	fParcelI    = byte(12) // uvarint receipts | parcel in the interned-action wire form (see intern.go)
	fLCOSet     = byte(13) // LCO trigger: u64 tid | u8 op | gid | u32 slot | u32 hops | u32 vlen | value
	fLCOFire    = byte(14) // LCO resolution delivery to a waiter; same body as fLCOSet
	fLCOAck     = byte(15) // LCO trigger receipt: u64 tid; stops retransmission
	fBeat       = byte(16) // membership heartbeat: u64 locality-map fingerprint
	fDead       = byte(17) // authoritative death verdict: u16 node
	fLoad       = byte(18) // balancer load report: u16 n | n x (u32 locality, f64 score bits)
)

// distState is the runtime's view of the multi-node machine: the frame
// transport, the locality→node map, and the cross-node accounting that
// extends quiescence detection over the wire.
//
// Accounting model: a parcel leaving this node keeps its local work unit
// charged until the receiving node acknowledges the frame; the receiver
// charges its own unit before it owes the receipt, so an in-flight parcel
// is counted by at least one node at every instant. Receipts are
// cumulative counts, not one frame per parcel: they ride the next parcel
// toward the sender, or a standalone fAck when none goes that way soon
// (see owe). Global quiescence is then detected with a Mattern-style
// two-wave probe: all nodes report zero pending work and identical,
// balanced send/receive totals across two consecutive waves.
type distState struct {
	rt   *Runtime
	tr   transport.Transport
	node int
	lmap *agas.LocalityMap
	home int // first resident locality; anchors failure accounting

	sent atomic.Int64 // parcel frames sent (successfully handed to the transport)
	recv atomic.Int64 // parcel frames received

	// peerTab is the per-peer lane state: parcel counters, the
	// sent-but-unacked count whose work units a death must release,
	// membership status, liveness, and the phi detector. It grows
	// copy-on-write as nodes join.
	peerTab atomic.Pointer[[]*peerState]
	growMu  sync.Mutex

	// mb is the membership protocol state; nil when the transport cannot
	// grow (it is not a transport.MemberTransport).
	mb *memberState

	// intern carries the per-peer action tables; internedSent/internedRecv
	// count fParcelI traffic (observability, and the tests' assertion
	// that interned frames flow both ways).
	intern       *internState
	internedSent atomic.Uint64
	internedRecv atomic.Uint64

	// acksPiggybacked/acksStandalone count the receipts this node sent on
	// parcel frames and in standalone fAck frames; acksClosed stops the
	// standalone flush once the transport is about to close.
	acksPiggybacked atomic.Int64
	acksStandalone  atomic.Int64
	acksClosed      atomic.Bool

	drainMu  sync.Mutex
	drainSeq uint64
	drains   map[uint64]chan drainReply
	departed map[int]drainReply // final totals of nodes that said goodbye

	// rpc holds the waiters for this node's outstanding migration
	// exchanges, keyed by exchange ID. The ID — not the GID — matches a
	// reply to its request, so a reply straggling in after its exchange
	// timed out can never resolve a later exchange for the same object.
	rpcMu  sync.Mutex
	rpcSeq uint64
	rpc    map[uint64]chan rpcReply

	// lco is the sender/receiver state of the acknowledging LCO trigger
	// protocol (see lcoframes.go).
	lco lcoSendState

	// laneTr is non-nil when the transport shards peer pairs across
	// several connections (transport.LaneTransport); lanes caches its lane
	// count. Parcel and LCO-trigger traffic is spread across lanes by
	// destination-GID affinity (laneOf); control frames ride lane 0.
	laneTr transport.LaneTransport
	lanes  int

	haltOnce sync.Once
	halt     chan struct{}
}

// ackFlushDelay bounds how long owed receipts wait for a parcel toward
// their peer before a standalone fAck carries them. It is several remote
// round trips long, so in call/reply traffic the reply nearly always
// carries the receipt for its request, and the receipt for the reply
// rides the next request.
const ackFlushDelay = 200 * time.Microsecond

// rpcReply is the outcome of one migration frame exchange.
type rpcReply struct {
	ok  bool
	msg string
}

type drainReply struct {
	node       int
	pending    int64
	sent, recv uint64
	fp         uint64 // replier's membership fingerprint
}

func newDistState(r *Runtime, tr transport.Transport, node int, lmap *agas.LocalityMap) *distState {
	hr, _ := lmap.NodeRange(node)
	d := &distState{
		rt:       r,
		tr:       tr,
		node:     node,
		lmap:     lmap,
		home:     hr.Lo,
		intern:   newInternState(tr.Nodes()),
		drains:   make(map[uint64]chan drainReply),
		departed: make(map[int]drainReply),
		rpc:      make(map[uint64]chan rpcReply),
		halt:     make(chan struct{}),
	}
	d.lanes = 1
	if lt, ok := tr.(transport.LaneTransport); ok {
		d.laneTr = lt
		d.lanes = lt.Lanes()
	}
	tab := make([]*peerState, tr.Nodes())
	for i := range tab {
		tab[i] = &peerState{}
	}
	d.peerTab.Store(&tab)
	// New re-announces the full registry once Register has run; this
	// builtin prefix only keeps the encode table non-nil until then.
	d.intern.announce(r.acts.snapshot())
	return d
}

// onFrame is the transport receive handler. It runs on transport
// goroutines; everything it does is either non-blocking or a bounded send.
func (d *distState) onFrame(from int, frame []byte) {
	if len(frame) == 0 {
		d.rt.recordError(fmt.Errorf("core: empty frame from node %d", from))
		return
	}
	// An armed crash or partition destroys the frame before the runtime
	// sees it — the node is mute, not misbehaving.
	if f := d.rt.faults; f != nil && f.silence(d.node, from) {
		return
	}
	// A death verdict is final: frames from the declared-dead are dropped,
	// so a zombie (or a healed partition) cannot re-enter the accounting.
	if d.peerDead(from) {
		return
	}
	// Stamp liveness before dispatch: the death check counts silence
	// across ALL lanes of a peer, so any frame kind on any lane vetoes a
	// pending verdict (see memberState.check).
	var stamp int64
	if ps := d.peer(from); ps != nil {
		stamp = time.Now().UnixNano()
		ps.lastFrame.Store(stamp)
	}
	switch frame[0] {
	case fParcelI:
		d.internedRecv.Add(1)
		d.onParcel(from, frame[1:], stamp)
	case fAck:
		n, ok := decodeAckCount(frame[1:])
		if !ok {
			d.rt.recordError(fmt.Errorf("core: bad receipt frame from node %d", from))
			return
		}
		d.settle(from, n)
	case fAckMoved:
		d.settle(from, 1)
		d.onMovedVerdict(frame[1:])
	case fMigrate:
		d.onMigrate(from, frame[1:])
	case fMigrateOK, fDirOK:
		d.onRPCReply(frame[1:])
	case fDirUpdate:
		d.onDirUpdate(from, frame[1:])
	case fLCOSet, fLCOFire:
		d.onLCOTrigger(from, frame[1:])
	case fLCOAck:
		d.onLCOAck(frame[1:])
	case fDrain:
		if len(frame) < 9 {
			return
		}
		// The receipts owed to the prober go first, so its wave does not
		// wait on a flush timer. Only the prober's: a flush toward another
		// peer could block this receive loop on a link that is down.
		if ps := d.peer(from); ps != nil {
			d.flushAcks(from, ps)
		}
		d.replyDrain(from, binary.LittleEndian.Uint64(frame[1:9]))
	case fDrainReply:
		d.onDrainReply(from, frame[1:])
	case fGoodbye:
		if len(frame) < 17 {
			return
		}
		d.drainMu.Lock()
		d.departed[from] = drainReply{
			node: from,
			sent: binary.LittleEndian.Uint64(frame[1:9]),
			recv: binary.LittleEndian.Uint64(frame[9:17]),
		}
		d.drainMu.Unlock()
		// A clean departure ends monitoring: the peer's coming silence must
		// not read as a death (see memberState.check and declareDead).
		if ps := d.ensurePeer(from); ps != nil {
			ps.departed.Store(true)
		}
	case fHalt:
		d.haltOnce.Do(func() { close(d.halt) })
	case fBeat:
		d.onBeat(from, frame[1:])
	case fDead:
		d.onDead(from, frame[1:])
	case fLoad:
		d.onLoad(from, frame[1:])
	default:
		d.rt.recordError(fmt.Errorf("core: unknown frame type %d from node %d", frame[0], from))
	}
}

// settle applies a cumulative receipt for n parcels from node from,
// releasing the work units they held (see peerState.settle).
func (d *distState) settle(from int, n uint64) {
	if ps := d.peer(from); ps != nil {
		d.rt.doneWorkN(ps.settle(n))
	}
}

// decodeAckCount parses the body of an fAck frame: exactly one uvarint.
func decodeAckCount(body []byte) (n uint64, ok bool) {
	n, k := binary.Uvarint(body)
	return n, k > 0 && k == len(body)
}

// errBadReceipts reports a parcel frame whose receipt prefix does not
// parse.
var errBadReceipts = errors.New("core: malformed receipt count")

// splitReceipts parses the receipt prefix of a parcel frame body,
// returning the count and the parcel bytes after it.
func splitReceipts(body []byte) (n uint64, rest []byte, ok bool) {
	n, k := binary.Uvarint(body)
	if k <= 0 {
		return 0, nil, false
	}
	return n, body[k:], true
}

// onParcel settles the receipts a parcel frame carries, then decodes and
// delivers its parcel. The work unit is charged before the receipt is
// owed, so the parcel is never uncounted. When this node knows the
// destination object lives elsewhere — it departed by migration, or the
// home directory here names another node — the receipt goes back at once
// as an fAckMoved carrying the "moved" verdict, so the stale sender
// repoints its caches before its next parcel. stamp is the frame's arrival
// time (wall-clock nanoseconds).
//
// The parcel decodes into a pooled value that owns its bytes (body is the
// transport's reused read buffer); ownership then flows down the delivery
// path, which releases it when dispatch completes.
func (d *distState) onParcel(from int, body []byte, stamp int64) {
	d.recv.Add(1)
	ps := d.ensurePeer(from)
	if ps != nil {
		ps.recv.Add(1)
	}
	var p *parcel.Parcel
	n, rest, ok := splitReceipts(body)
	err := errBadReceipts
	if ok {
		d.settle(from, n)
		p, rest, err = parcel.DecodePooledInterned(rest, d.decodeTableFor(from))
	}
	if err == nil && len(rest) == parcel.TraceWireSize {
		// A sampled parcel carries the fixed-size trace trailer. The
		// length is unambiguous: the base wire form never leaves trailing
		// bytes.
		p.Trace, rest, err = parcel.DecodeTrace(rest)
	}
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("core: %d trailing bytes after parcel", len(rest))
	}
	var owner int
	var gen uint64
	var g agas.GID
	rerr := err
	if err == nil {
		g = p.Dest
		d.rt.addWork()
		owner, gen, rerr = d.resolveHere(g)
	}
	d.ackParcel(from, ps, g, owner, gen, rerr, stamp)
	if err != nil {
		parcel.Release(p)
		d.rt.recordError(fmt.Errorf("core: bad parcel frame from node %d: %w", from, err))
		return
	}
	d.rt.emitSpan(trace.SpanWireRecv, d.home, &p.Trace, p.Action)
	d.deliver(p, owner, rerr)
}

// resolveHere reports this node's authoritative knowledge of a
// destination — the owning locality and its generation, with any
// forwarding verdict folded into the next hop. The consult counts as an
// AGAS resolution; it deliberately never reads the translation cache,
// since a stale line must not back a "moved" verdict. Unknown names
// report the error.
func (d *distState) resolveHere(g agas.GID) (owner int, gen uint64, err error) {
	return d.rt.agas.ResolveAuthoritative(d.home, g)
}

// deliver routes a received parcel — already resolved by onParcel to
// (owner, err) — to its resident locality, or, when the object is not
// hosted here, re-routes it through the standard forwarding path
// (hop-bounded, traced, delayed); a forwarding pointer or the home
// directory makes the chase a single hop. Runs with one work unit
// charged; every path releases it exactly once.
func (d *distState) deliver(p *parcel.Parcel, owner int, err error) {
	r := d.rt
	if err != nil {
		r.deliverFailure(d.home, p, err)
		return
	}
	node, known := d.lmap.NodeOf(owner)
	if !known {
		r.deliverFailure(d.home, p, fmt.Errorf("core: owner locality %d outside machine: %w", owner, agas.ErrUnknown))
		return
	}
	if node != d.node {
		r.forward(d.home, p) // charges the new routing leg...
		r.doneWork()         // ...so this one is released here
		return
	}
	r.enqueue(owner, p)
}

// sendRetry delivers a frame, retrying once: a Send error means
// non-delivery, and the second attempt redials a connection that went
// stale since its last use, so a single transient break cannot lose a
// frame between two healthy nodes. An armed crash or partition destroys
// the frame here and reports success — from this node's perspective the
// bytes left; the network ate them.
func (d *distState) sendRetry(node int, frame []byte) error {
	if f := d.rt.faults; f != nil && f.silence(d.node, node) {
		return nil
	}
	err := d.tr.Send(node, frame)
	if err != nil {
		err = d.tr.Send(node, frame)
	}
	return err
}

// laneOf affinity-hashes a destination GID onto a transport lane. All
// parcels for one object ride one lane, so the transport's per-lane FIFO
// preserves per-object ordering while independent objects spread across
// lanes and stop queueing behind one stream's head-of-line. The mix is a
// Fibonacci multiply over the GID's distinguishing words — Seq alone would
// stripe consecutively-allocated objects onto consecutive lanes, which is
// fine, but Home must participate so two nodes' object zero don't collide
// systematically.
func (d *distState) laneOf(g agas.GID) int {
	if d.lanes <= 1 {
		return 0
	}
	h := (g.Seq ^ uint64(g.Home)<<32 ^ uint64(g.Kind)) * 0x9e3779b97f4a7c15
	return int((h >> 32) % uint64(d.lanes))
}

// sendRetryLane is sendRetry over a specific transport lane. Lane 0 (and
// any lane on a laneless transport) degrades to plain sendRetry.
func (d *distState) sendRetryLane(node, lane int, frame []byte) error {
	if lane == 0 || d.laneTr == nil {
		return d.sendRetry(node, frame)
	}
	if f := d.rt.faults; f != nil && f.silence(d.node, node) {
		return nil
	}
	err := d.laneTr.SendLane(node, lane, frame)
	if err != nil {
		err = d.laneTr.SendLane(node, lane, frame)
	}
	return err
}

// ackParcel settles the receipt for one parcel frame from node. A
// "moved" verdict — this node's authoritative knowledge (directory, import
// table, or forwarding pointer) places the destination on another node —
// goes back at once in an fAckMoved, so the sender repoints its caches and
// reaches the new owner directly next time. Every other receipt is owed:
// the receive path makes no transport send for it. (owner, gen, err) is
// onParcel's single resolution of destination g; err is also set for an
// undecodable frame.
func (d *distState) ackParcel(node int, ps *peerState, g agas.GID, owner int, gen uint64, err error, stamp int64) {
	// gen 0 is an unversioned route-toward-home guess, not knowledge
	// worth teaching the sender.
	if n, known := d.lmap.NodeOf(owner); err == nil && gen > 0 && known && n != d.node {
		frame := make([]byte, 0, 1+agas.GIDSize+12)
		frame = append(frame, fAckMoved)
		frame = g.Encode(frame)
		frame = binary.LittleEndian.AppendUint32(frame, uint32(owner))
		frame = binary.LittleEndian.AppendUint64(frame, gen)
		if err := d.sendRetry(node, frame); err != nil {
			// The sender stays unreachable: its work unit for this parcel
			// leaks and its Wait will block until the operator intervenes —
			// parcels are not fault tolerant. Record for diagnosis.
			d.rt.recordError(fmt.Errorf("core: ack to node %d: %w", node, err))
		}
		return
	}
	if ps != nil {
		d.owe(node, ps, stamp)
	}
}

// owe records one receipt owed to node and arms the standalone flush that
// carries it if no parcel toward node does first.
func (d *distState) owe(node int, ps *peerState, stamp int64) {
	if ps.owed.Add(1) == 1 {
		ps.owedSince.Store(stamp)
	}
	d.armAckFlush(node, ps, ackFlushDelay)
}

// armAckFlush schedules the peer's flush timer unless it is already
// pending. The timer is created on first use and reused afterwards.
func (d *distState) armAckFlush(node int, ps *peerState, after time.Duration) {
	if ps.ackArmed.Load() || !ps.ackArmed.CompareAndSwap(false, true) {
		return
	}
	ps.mu.Lock()
	if ps.ackTimer == nil {
		ps.ackTimer = time.AfterFunc(after, func() { d.onAckTimer(node, ps) })
	} else {
		ps.ackTimer.Reset(after)
	}
	ps.mu.Unlock()
}

// onAckTimer flushes receipts that no parcel has carried for
// ackFlushDelay. Receipts owed for less than that (a parcel carried the
// count to 0 as the timer fired, and it rose again) wait out the remainder
// instead.
func (d *distState) onAckTimer(node int, ps *peerState) {
	ps.ackArmed.Store(false)
	if ps.owed.Load() == 0 {
		return
	}
	if wait := ackFlushDelay - time.Duration(time.Now().UnixNano()-ps.owedSince.Load()); wait > 0 {
		d.armAckFlush(node, ps, wait)
		return
	}
	d.flushAcks(node, ps)
}

// flushAcks sends every receipt owed to node in one standalone cumulative
// fAck. Receipts owed to the declared-dead are dropped; a failed send
// hands its receipts back, for the next parcel or flush to carry.
func (d *distState) flushAcks(node int, ps *peerState) {
	if d.acksClosed.Load() || ps.dead.Load() {
		return
	}
	n := ps.owed.Swap(0)
	if n == 0 {
		return
	}
	frame := binary.AppendUvarint(append(make([]byte, 0, 1+binary.MaxVarintLen64), fAck), n)
	d.acksStandalone.Add(int64(n))
	if err := d.sendRetry(node, frame); err != nil {
		d.acksStandalone.Add(-int64(n))
		d.returnReceipts(ps, n)
		if !d.acksClosed.Load() {
			d.rt.recordError(fmt.Errorf("core: receipts to node %d: %w", node, err))
		}
	}
}

// returnReceipts gives n receipts that failed to leave back to the peer's
// owed count, unless the peer died meanwhile.
func (d *distState) returnReceipts(ps *peerState, n uint64) {
	if n == 0 || ps.dead.Load() {
		return
	}
	if ps.owed.Add(n) == n {
		ps.owedSince.Store(time.Now().UnixNano())
	}
}

// flushAllAcks flushes the receipts owed to every peer. A probing or
// departing node calls it so the machine's quiescence does not wait on its
// flush timers.
func (d *distState) flushAllAcks() {
	for n, ps := range *d.peerTab.Load() {
		if n != d.node && ps != nil && ps.owed.Load() != 0 {
			d.flushAcks(n, ps)
		}
	}
}

// closeAcks stops the flush timers before the transport closes; receipts
// still owed then are dropped with the connection.
func (d *distState) closeAcks() {
	d.acksClosed.Store(true)
	for _, ps := range *d.peerTab.Load() {
		if ps == nil {
			continue
		}
		ps.mu.Lock()
		if ps.ackTimer != nil {
			ps.ackTimer.Stop()
		}
		ps.mu.Unlock()
	}
}

// decodeMovedVerdict parses the body of an fAckMoved frame:
// gid | u32 owner | u64 gen.
func decodeMovedVerdict(body []byte) (g agas.GID, owner int, gen uint64, ok bool) {
	g, rest, err := agas.DecodeGID(body)
	if err != nil || len(rest) != 12 {
		return agas.Nil, 0, 0, false
	}
	owner = int(int32(binary.LittleEndian.Uint32(rest[0:4])))
	gen = binary.LittleEndian.Uint64(rest[4:12])
	return g, owner, gen, true
}

// onMovedVerdict applies a piggybacked migration verdict to this node's
// translation caches.
func (d *distState) onMovedVerdict(body []byte) {
	g, owner, gen, ok := decodeMovedVerdict(body)
	if !ok || owner < 0 || owner >= d.rt.Localities() {
		return
	}
	d.rt.agas.Repoint(g, owner, gen)
}

// sendParcel ships p to node in the interned wire form. The caller's
// work unit for p stays charged until the peer acknowledges; on
// transport failure the parcel fails locally (parcels are at-most-once,
// as on the modelled network). sendParcel consumes p: the encode buffer
// returns to its pool once the transport has taken the bytes, and the
// parcel itself is released unless it was recycled into the failure path.
func (d *distState) sendParcel(node, src int, p *parcel.Parcel) {
	if !p.InternEncodable() {
		// Only a name longer than MaxInternString fails the interned form,
		// and registration refuses such names, so the peer could only fail
		// the parcel as an unknown action: fail it here the same way.
		d.rt.deliverFailure(src, p, fmt.Errorf("core: unknown action %q", oversizedAction(p)))
		return
	}
	ps := d.ensurePeer(node)
	if ps == nil {
		d.rt.deliverFailure(src, p, fmt.Errorf("core: node %d outside machine: %w", node, agas.ErrUnknown))
		return
	}
	// A parcel toward the declared-dead fails fast with the typed loss
	// error instead of dialing a corpse. The outstanding count is taken
	// under the lane lock so a racing death declaration either sees this
	// parcel's unit and releases it, or never sees it at all.
	ps.mu.Lock()
	if ps.dead.Load() {
		ps.mu.Unlock()
		d.rt.deliverFailure(src, p, fmt.Errorf("core: node %d: %w", node, agas.ErrNodeLost))
		return
	}
	ps.outstanding++
	// Every receipt owed to the peer rides this frame, so the flush timer
	// guarding them has nothing left to carry: stop it. A timer left to
	// fire would find nothing owed — or a newer receipt to wait for — and
	// in call/reply traffic every call would pay for one such wake-up.
	receipts := ps.owed.Swap(0)
	disarmed := receipts > 0 && ps.ackArmed.Load() && ps.ackTimer != nil && ps.ackTimer.Stop()
	ps.mu.Unlock()
	if disarmed {
		ps.ackArmed.Store(false)
		// A receipt owed since the swap saw the timer still armed.
		if ps.owed.Load() != 0 {
			d.armAckFlush(node, ps, ackFlushDelay)
		}
	}
	// The wire.send span is emitted before encoding so the trailer names
	// it as the receiving hop's parent.
	d.rt.emitSpan(trace.SpanWireSend, src, &p.Trace, p.Action)
	w := parcel.GetWire()
	w.B = append(w.B, fParcelI)
	w.B = binary.AppendUvarint(w.B, receipts)
	w.B = p.EncodeInterned(w.B, d.intern.our.Load())
	d.internedSent.Add(1)
	if !p.Trace.Zero() {
		w.B = p.Trace.Append(w.B)
	}
	d.sent.Add(1)
	ps.sent.Add(1)
	d.acksPiggybacked.Add(int64(receipts))
	// Parcels ride the lane their destination hashes to; per-object order
	// is the per-lane FIFO.
	err := d.sendRetryLane(node, d.laneOf(p.Dest), w.B)
	// Safe even on the zero-copy transport: Send does not return until
	// the write covering w.B has completed, so nothing references the
	// buffer once we're here.
	parcel.PutWire(w)
	if err != nil {
		d.acksPiggybacked.Add(-int64(receipts))
		d.returnReceipts(ps, receipts)
		d.sent.Add(-1)
		ps.sent.Add(-1)
		// Undo the outstanding charge — unless a death raced in and
		// already released this unit, in which case re-charge it so the
		// failure delivery below releases a unit that exists.
		ps.mu.Lock()
		if ps.dead.Load() {
			ps.mu.Unlock()
			d.rt.addWork()
		} else {
			if ps.outstanding > 0 {
				ps.outstanding--
			}
			ps.mu.Unlock()
		}
		d.rt.deliverFailure(src, p, fmt.Errorf("core: transport to node %d: %w", node, err))
		return
	}
	parcel.Release(p)
	d.rt.slow.ParcelsSent.Inc()
}

// oversizedAction names the first action reference of p too long for the
// interned wire form.
func oversizedAction(p *parcel.Parcel) string {
	if len(p.Action) > parcel.MaxInternString {
		return p.Action
	}
	for _, c := range p.Cont {
		if len(c.Action) > parcel.MaxInternString {
			return c.Action
		}
	}
	return p.Action
}

// migrateRPCTimeout bounds how long a migration waits for a peer's
// confirmation before declaring the exchange ambiguous.
const migrateRPCTimeout = 10 * time.Second

// errMigrateUnacked marks a migration exchange whose frame was handed to
// the transport but never confirmed: the peer may or may not have applied
// it, so the caller must not assume either way.
var errMigrateUnacked = errors.New("migration unconfirmed by peer")

// rpcCall sends one migration frame (whose first 8 body bytes are the
// exchange ID xid) to node and waits for the matching fMigrateOK/fDirOK.
// delivered reports whether the peer may have applied the frame: false
// only when the transport guaranteed non-delivery or the peer rejected
// it, so the caller can safely roll back.
func (d *distState) rpcCall(node int, xid uint64, g agas.GID, frame []byte) (delivered bool, err error) {
	ch := make(chan rpcReply, 1)
	d.rpcMu.Lock()
	d.rpc[xid] = ch
	d.rpcMu.Unlock()
	defer func() {
		d.rpcMu.Lock()
		delete(d.rpc, xid)
		d.rpcMu.Unlock()
	}()
	if err := d.sendRetry(node, frame); err != nil {
		return false, fmt.Errorf("core: migration frame to node %d: %w", node, err)
	}
	select {
	case rep := <-ch:
		if !rep.ok {
			// The peer rejected the frame and provably did not apply it.
			return false, fmt.Errorf("core: node %d rejected migration of %v: %s", node, g, rep.msg)
		}
		return true, nil
	case <-time.After(migrateRPCTimeout):
		return true, fmt.Errorf("core: node %d: %w for %v", node, errMigrateUnacked, g)
	}
}

// nextXID mints an exchange ID for one migration frame round trip.
func (d *distState) nextXID() uint64 {
	d.rpcMu.Lock()
	d.rpcSeq++
	xid := d.rpcSeq
	d.rpcMu.Unlock()
	return xid
}

// encodeMigHeader builds the shared migration frame header:
// kind | u64 xid | gid | u32 loc | u64 gen.
func encodeMigHeader(kind byte, xid uint64, g agas.GID, loc int, gen uint64, extra int) []byte {
	frame := make([]byte, 0, 9+agas.GIDSize+12+extra)
	frame = append(frame, kind)
	frame = binary.LittleEndian.AppendUint64(frame, xid)
	frame = g.Encode(frame)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(loc))
	frame = binary.LittleEndian.AppendUint64(frame, gen)
	return frame
}

// decodeMigHeader parses the header written by encodeMigHeader (minus the
// kind byte, consumed by onFrame), returning any trailing payload.
func decodeMigHeader(body []byte) (xid uint64, g agas.GID, loc int, gen uint64, rest []byte, ok bool) {
	if len(body) < 8 {
		return 0, agas.Nil, 0, 0, nil, false
	}
	xid = binary.LittleEndian.Uint64(body[0:8])
	g, rest, err := agas.DecodeGID(body[8:])
	if err != nil || len(rest) < 12 {
		return 0, agas.Nil, 0, 0, nil, false
	}
	loc = int(binary.LittleEndian.Uint32(rest[0:4]))
	gen = binary.LittleEndian.Uint64(rest[4:12])
	return xid, g, loc, gen, rest[12:], true
}

// migrateTo pushes g's wire-encoded payload to node for installation at
// locality to under generation gen, and waits for the peer's verdict.
func (d *distState) migrateTo(node int, g agas.GID, to int, gen uint64, payload []byte) (delivered bool, err error) {
	xid := d.nextXID()
	frame := append(encodeMigHeader(fMigrate, xid, g, to, gen, len(payload)), payload...)
	return d.rpcCall(node, xid, g, frame)
}

// commitDir asks g's home node to commit the migrated owner in its
// authoritative directory.
func (d *distState) commitDir(node int, g agas.GID, to int, gen uint64) error {
	xid := d.nextXID()
	_, err := d.rpcCall(node, xid, g, encodeMigHeader(fDirUpdate, xid, g, to, gen, 0))
	return err
}

// replyOutcome answers migration exchange xid with its ok/error verdict.
func (d *distState) replyOutcome(node int, kind byte, xid uint64, opErr error) {
	frame := make([]byte, 0, 12)
	frame = append(frame, kind)
	frame = binary.LittleEndian.AppendUint64(frame, xid)
	if opErr == nil {
		frame = append(frame, 1, 0, 0)
	} else {
		msg := opErr.Error()
		if len(msg) > 1<<15 {
			msg = msg[:1<<15]
		}
		frame = append(frame, 0)
		frame = binary.LittleEndian.AppendUint16(frame, uint16(len(msg)))
		frame = append(frame, msg...)
	}
	if err := d.sendRetry(node, frame); err != nil {
		d.rt.recordError(fmt.Errorf("core: migration verdict to node %d: %w", node, err))
	}
}

// onMigrate installs an inbound migrated object: decode the payload, put
// it in the destination locality's store, and record the import (plus a
// cache repoint) so parcels already routed here resolve to it at once.
func (d *distState) onMigrate(from int, body []byte) {
	xid, g, to, gen, payload, ok := decodeMigHeader(body)
	if !ok {
		d.rt.recordError(fmt.Errorf("core: bad migrate frame from node %d", from))
		return
	}
	install := func() error {
		if to < 0 || to >= d.rt.Localities() || !d.rt.Resident(to) {
			return fmt.Errorf("locality %d is not hosted by node %d", to, d.node)
		}
		v, err := parcel.DecodeAny(payload)
		if err != nil {
			return fmt.Errorf("payload: %w", err)
		}
		d.rt.loc(to).Store().Put(g, v)
		d.rt.agas.DropForward(g)
		d.rt.agas.SetImport(g, to, gen)
		d.rt.agas.Repoint(g, to, gen)
		// The sender just placed this object here: the local balancer
		// defers to that decision for a cooldown before re-judging it.
		d.rt.coolBalance(g)
		return nil
	}
	d.replyOutcome(from, fMigrateOK, xid, install())
}

// onDirUpdate commits a remote owner's migration in this node's
// authoritative home directory and repoints local caches.
func (d *distState) onDirUpdate(from int, body []byte) {
	xid, g, to, gen, _, ok := decodeMigHeader(body)
	if !ok {
		d.rt.recordError(fmt.Errorf("core: bad directory update from node %d", from))
		return
	}
	commit := func() error {
		if to < 0 || to >= d.rt.Localities() {
			return fmt.Errorf("locality %d outside machine", to)
		}
		if err := d.rt.agas.CommitMigration(g, to, gen); err != nil {
			return err
		}
		d.rt.agas.Repoint(g, to, gen)
		return nil
	}
	d.replyOutcome(from, fDirOK, xid, commit())
}

// decodeOutcome parses the body of an fMigrateOK/fDirOK frame:
// u64 xid | u8 ok | (when not ok) u16 len | error message.
func decodeOutcome(body []byte) (xid uint64, rep rpcReply, ok bool) {
	if len(body) < 9 {
		return 0, rpcReply{}, false
	}
	xid = binary.LittleEndian.Uint64(body[0:8])
	rest := body[8:]
	rep.ok = rest[0] == 1
	if !rep.ok && len(rest) >= 3 {
		n := int(binary.LittleEndian.Uint16(rest[1:3]))
		if n <= len(rest)-3 {
			rep.msg = string(rest[3 : 3+n])
		}
	}
	return xid, rep, true
}

// onRPCReply resolves the waiter for a migration exchange verdict.
func (d *distState) onRPCReply(body []byte) {
	xid, rep, valid := decodeOutcome(body)
	if !valid {
		return
	}
	d.rpcMu.Lock()
	ch, ok := d.rpc[xid]
	d.rpcMu.Unlock()
	if ok {
		select {
		case ch <- rep:
		default: // a duplicate reply
		}
	}
}

// liveTotals sums this node's parcel counters over lanes to peers not
// declared dead. Traffic exchanged with a corpse can never balance — its
// side of the ledger died with it — so quiescence sums live lanes only;
// both ends of a dead lane exclude it symmetrically because the death
// verdict is gossiped machine-wide.
func (d *distState) liveTotals() (sent, recv uint64) {
	tab := *d.peerTab.Load()
	for n, ps := range tab {
		if n == d.node || ps == nil || ps.dead.Load() {
			continue
		}
		sent += uint64(ps.sent.Load())
		recv += uint64(ps.recv.Load())
	}
	return sent, recv
}

// replyDrain answers a quiescence probe with this node's instantaneous
// accounting snapshot over live lanes, stamped with its membership
// fingerprint so a prober on a divergent view invalidates the wave.
func (d *distState) replyDrain(to int, seq uint64) {
	sent, recv := d.liveTotals()
	buf := make([]byte, 0, 41)
	buf = append(buf, fDrainReply)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.rt.pending.Load()))
	buf = binary.LittleEndian.AppendUint64(buf, sent)
	buf = binary.LittleEndian.AppendUint64(buf, recv)
	buf = binary.LittleEndian.AppendUint64(buf, d.lmap.Fingerprint())
	if err := d.sendRetry(to, buf); err != nil {
		d.rt.recordError(fmt.Errorf("core: drain reply to node %d: %w", to, err))
	}
}

// decodeDrainReply parses the body of an fDrainReply frame:
// u64 seq | i64 pending | u64 sent | u64 recv | u64 fingerprint.
func decodeDrainReply(from int, body []byte) (seq uint64, rep drainReply, ok bool) {
	if len(body) < 40 {
		return 0, drainReply{}, false
	}
	return binary.LittleEndian.Uint64(body[0:8]), drainReply{
		node:    from,
		pending: int64(binary.LittleEndian.Uint64(body[8:16])),
		sent:    binary.LittleEndian.Uint64(body[16:24]),
		recv:    binary.LittleEndian.Uint64(body[24:32]),
		fp:      binary.LittleEndian.Uint64(body[32:40]),
	}, true
}

func (d *distState) onDrainReply(from int, body []byte) {
	seq, rep, valid := decodeDrainReply(from, body)
	if !valid {
		return
	}
	d.drainMu.Lock()
	ch, ok := d.drains[seq]
	d.drainMu.Unlock()
	if ok {
		select {
		case ch <- rep:
		default: // probe already abandoned
		}
	}
}

// probe runs one drain wave: ask every live peer for its snapshot and
// combine with our own. ok is false when a peer could not be reached, did
// not answer in time, answered from a divergent membership view, or the
// membership changed mid-wave (the wave is then retried).
func (d *distState) probe() (allZero bool, sent, recv uint64, ok bool) {
	fp := d.lmap.Fingerprint()
	d.drainMu.Lock()
	d.drainSeq++
	seq := d.drainSeq
	ch := make(chan drainReply, d.lmap.Nodes())
	d.drains[seq] = ch
	gone := make(map[int]drainReply, len(d.departed))
	for n, rep := range d.departed {
		gone[n] = rep
	}
	d.drainMu.Unlock()
	defer func() {
		d.drainMu.Lock()
		delete(d.drains, seq)
		d.drainMu.Unlock()
	}()

	// Peers count parcels this node has not yet acknowledged as pending:
	// settle them before asking.
	d.flushAllAcks()
	probeFrame := make([]byte, 0, 9)
	probeFrame = append(probeFrame, fDrain)
	probeFrame = binary.LittleEndian.AppendUint64(probeFrame, seq)

	allZero = d.rt.pending.Load() == 0
	sent, recv = d.liveTotals()
	need := make(map[int]bool)
	ok = true
	for n := 0; n < d.lmap.Nodes(); n++ {
		if n == d.node || d.peerDead(n) {
			continue
		}
		if rep, departed := gone[n]; departed {
			// A clean departure's stored totals predate any later death,
			// so they may still count a since-dead lane; the machine-wide
			// sums then never rebalance. Accepted: a crash after a clean
			// shutdown has begun is outside the supported envelope.
			sent += rep.sent
			recv += rep.recv
			continue
		}
		if err := d.sendRetry(n, probeFrame); err != nil {
			ok = false
			continue
		}
		need[n] = true
	}
	// Collect one answer per probed peer. A peer that departs mid-probe
	// never answers; its goodbye record stands in for the reply. A peer
	// declared dead mid-probe invalidates the wave — the next wave skips
	// its lane on both sides.
	timeout := time.After(500 * time.Millisecond)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for len(need) > 0 {
		select {
		case rep := <-ch:
			if !need[rep.node] {
				continue // duplicate or stale
			}
			if rep.fp != fp {
				return false, 0, 0, false // divergent membership view
			}
			delete(need, rep.node)
			if rep.pending != 0 {
				allZero = false
			}
			sent += rep.sent
			recv += rep.recv
		case <-tick.C:
			d.drainMu.Lock()
			for n := range need {
				if rep, departed := d.departed[n]; departed {
					delete(need, n)
					sent += rep.sent
					recv += rep.recv
				}
			}
			d.drainMu.Unlock()
			for n := range need {
				if d.peerDead(n) {
					return false, 0, 0, false
				}
			}
		case <-timeout:
			return false, 0, 0, false
		}
	}
	if d.lmap.Fingerprint() != fp {
		return false, 0, 0, false // membership changed under the wave
	}
	return allZero, sent, recv, ok
}

// waitGlobal blocks until the whole machine is quiescent: this node is
// locally quiet and two consecutive probe waves observe every node with
// zero pending work and unchanged, balanced cross-node totals (Mattern's
// four-counter method, collapsed to machine-wide sums).
func (d *distState) waitGlobal() {
	var prevSent, prevRecv uint64
	stable := false
	backoff := 100 * time.Microsecond
	for {
		d.rt.waitLocal()
		allZero, sent, recv, ok := d.probe()
		if ok && allZero && sent == recv {
			if stable && sent == prevSent && recv == prevRecv {
				return
			}
			stable, prevSent, prevRecv = true, sent, recv
			continue // immediately run the confirming wave
		}
		stable = false
		time.Sleep(backoff)
		if backoff *= 2; backoff > 10*time.Millisecond {
			backoff = 10 * time.Millisecond
		}
	}
}

// goodbye announces this node's departure with its final totals so peers
// can complete quiescence detection without it. Peers that already said
// goodbye themselves are skipped — retrying into their closed listeners
// would burn the whole dial budget for nothing.
func (d *distState) goodbye() {
	d.flushAllAcks()
	sent, recv := d.liveTotals()
	buf := make([]byte, 0, 17)
	buf = append(buf, fGoodbye)
	buf = binary.LittleEndian.AppendUint64(buf, sent)
	buf = binary.LittleEndian.AppendUint64(buf, recv)
	d.drainMu.Lock()
	gone := make(map[int]bool, len(d.departed))
	for n := range d.departed {
		gone[n] = true
	}
	d.drainMu.Unlock()
	for n := 0; n < d.lmap.Nodes(); n++ {
		if n != d.node && !gone[n] && !d.peerDead(n) {
			d.sendRetry(n, buf) // best effort: the peer may be gone anyway
		}
	}
}

// requestHalt broadcasts a cooperative halt and trips the local halt
// channel. A halt that cannot be delivered leaves that peer running — it
// is recorded, but only the operator can free an unreachable node.
func (d *distState) requestHalt() {
	for n := 0; n < d.lmap.Nodes(); n++ {
		if n != d.node && !d.peerDead(n) {
			if err := d.sendRetry(n, []byte{fHalt}); err != nil {
				d.rt.recordError(fmt.Errorf("core: halt to node %d: %w", n, err))
			}
		}
	}
	d.haltOnce.Do(func() { close(d.halt) })
}
