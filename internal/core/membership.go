package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agas"
	"repro/internal/transport"
)

// MembershipConfig tunes elastic membership and failure detection. The
// subsystem is on whenever the transport supports it (it implements
// transport.MemberTransport, i.e. the machine can grow): each
// node beats every HeartbeatInterval, feeds peers' beats into per-peer
// phi-accrual detectors, and declares a peer dead when its accrued
// suspicion crosses SuspectThreshold AND it has been silent for at least
// DeadAfter — the hard floor rides out scheduler stalls that pure phi
// would misread on loaded CI machines.
type MembershipConfig struct {
	// HeartbeatInterval is the beat period (default 250ms).
	HeartbeatInterval time.Duration
	// SuspectThreshold is the phi value at which a peer becomes deathly
	// suspect (default 8: odds of a false positive one in 10^8 under the
	// observed arrival distribution).
	SuspectThreshold float64
	// DeadAfter is the minimum silence before a suspect peer may be
	// declared dead (default 3s, floored at 4x HeartbeatInterval).
	DeadAfter time.Duration
}

// withDefaults fills zero fields with production defaults.
func (c MembershipConfig) withDefaults() MembershipConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 250 * time.Millisecond
	}
	if c.SuspectThreshold <= 0 {
		c.SuspectThreshold = 8
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * time.Second
	}
	if min := 4 * c.HeartbeatInterval; c.DeadAfter < min {
		c.DeadAfter = min
	}
	return c
}

// IsNodeLost reports whether err means a remote node died under an
// operation. It matches both the typed agas.ErrNodeLost and its message
// carried across the wire inside a remote failure string.
func IsNodeLost(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, agas.ErrNodeLost) {
		return true
	}
	return strings.Contains(err.Error(), agas.ErrNodeLost.Error())
}

// peerState is this node's per-peer wire accounting and liveness record.
// The parcel counters and the outstanding (sent-but-unacked) count used
// to be machine-global; membership needs them per lane so a death can
// release exactly the work units charged to the corpse and quiescence can
// sum live lanes only.
type peerState struct {
	sent     atomic.Int64 // parcels sent to this peer
	recv     atomic.Int64 // parcels received from this peer
	dead     atomic.Bool  // declared dead (written under mu)
	member   atomic.Bool  // peer announced membership support (beats expected)
	departed atomic.Bool  // peer said goodbye: clean shutdown, not a death
	det      atomic.Pointer[transport.PhiDetector]

	// lastFrame is the wall-clock nanosecond of the last frame of ANY kind
	// received from this peer, across every transport lane. The death check
	// consults it alongside the beat detector: on a sharded transport the
	// beat rides lane 0, and a peer whose lane-0 stream is wedged behind a
	// reconnect is not dead while its parcel lanes are demonstrably alive —
	// any-lane traffic vetoes the silence verdict.
	lastFrame atomic.Int64

	mu          sync.Mutex
	outstanding int // parcels sent, not yet acked: work units held open

	// owed counts receipts this node owes the peer for parcels it sent
	// here. They ride the next parcel frame toward the peer, or a
	// standalone cumulative fAck once none has carried them for
	// ackFlushDelay (see distState.owe).
	owed      atomic.Uint64
	owedSince atomic.Int64 // wall-clock nanosecond owed last rose from 0
	ackArmed  atomic.Bool  // the flush timer is pending
	ackTimer  *time.Timer  // created on first arm; guarded by mu
}

// settle applies a cumulative receipt for n parcels and returns the
// number of work units it frees: min(n, outstanding). A receipt from the
// declared-dead frees nothing — the death released every unit charged to
// the peer, and a straggling receipt must not release one twice.
func (ps *peerState) settle(n uint64) int {
	if n == 0 {
		return 0
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.dead.Load() {
		return 0
	}
	k := ps.outstanding
	if n < uint64(k) {
		k = int(n)
	}
	ps.outstanding -= k
	return k
}

// bury marks the peer dead and returns the work units its outstanding
// parcels held; receipts owed to it are dropped. ok is false when the peer
// was already dead.
func (ps *peerState) bury() (released int, ok bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.dead.Load() {
		return 0, false
	}
	ps.dead.Store(true)
	released = ps.outstanding
	ps.outstanding = 0
	ps.owed.Store(0)
	return released, true
}

// detector returns the peer's phi detector, creating it on first use.
func (ps *peerState) detector() *transport.PhiDetector {
	if det := ps.det.Load(); det != nil {
		return det
	}
	det := transport.NewPhiDetector()
	if ps.det.CompareAndSwap(nil, det) {
		return det
	}
	return ps.det.Load()
}

// peer returns the state for node n, or nil if none exists yet.
func (d *distState) peer(n int) *peerState {
	tab := *d.peerTab.Load()
	if n < 0 || n >= len(tab) {
		return nil
	}
	return tab[n]
}

// ensurePeer returns the state for node n, growing the table copy-on-
// write if needed. Returns nil only for insane IDs.
func (d *distState) ensurePeer(n int) *peerState {
	if ps := d.peer(n); ps != nil {
		return ps
	}
	if n < 0 || n >= transport.MaxJoinNodes {
		return nil
	}
	d.growMu.Lock()
	defer d.growMu.Unlock()
	old := *d.peerTab.Load()
	if n < len(old) {
		return old[n]
	}
	tab := make([]*peerState, n+1)
	copy(tab, old)
	for i := len(old); i <= n; i++ {
		tab[i] = &peerState{}
	}
	d.peerTab.Store(&tab)
	return tab[n]
}

// peerDead reports whether node n has been declared dead.
func (d *distState) peerDead(n int) bool {
	ps := d.peer(n)
	return ps != nil && ps.dead.Load()
}

// memberState runs this node's membership protocol: the beat loop, the
// per-peer phi checks, death declaration with its cleanup fan-out, and
// join admission.
type memberState struct {
	d        *distState
	cfg      MembershipConfig
	selfAddr string // this node's dial address, announced in the hello

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	excomm   atomic.Bool // this node itself was declared dead by a peer

	joinMu sync.Mutex // serializes join admissions

	deaths    atomic.Uint64
	joins     atomic.Uint64
	rehomes   atomic.Uint64 // localities adopted off dead nodes, machine-wide view
	released  atomic.Uint64 // work units released by deaths
	beatsSent atomic.Uint64
	beatsRecv atomic.Uint64
}

func newMemberState(d *distState, cfg MembershipConfig, selfAddr string) *memberState {
	return &memberState{
		d:        d,
		cfg:      cfg.withDefaults(),
		selfAddr: selfAddr,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// run is the membership loop: beat, then check, every interval.
func (m *memberState) run() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			if m.excomm.Load() {
				return
			}
			m.beat()
			m.check(now)
		}
	}
}

// stopLoop halts the membership loop and waits for it to exit.
func (m *memberState) stopLoop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// beat sends one heartbeat to every live peer in the map. Beats carry
// the sender's membership fingerprint so drift is observable; they ride
// the same frame service as parcels and are subject to the same armed
// kill/partition faults, which is exactly how a crashed node goes silent.
//
// Beats are deliberately NOT gated on the peer having announced
// membership: the transport dials lazily, hellos ride the connection
// handshake, and on an otherwise idle machine the first beat is what
// forces the dial that exchanges them.
func (m *memberState) beat() {
	d := m.d
	frame := encodeBeat(d.lmap.Fingerprint())
	for n := 0; n < d.lmap.Nodes(); n++ {
		if n == d.node {
			continue
		}
		if ps := d.peer(n); ps != nil && (ps.dead.Load() || ps.departed.Load()) {
			continue
		}
		if d.sendRetry(n, frame) == nil {
			m.beatsSent.Add(1)
		}
	}
}

// check polls every monitored peer's detector and declares deaths. A peer
// is only ever declared dead on positive evidence of prior life: fewer
// than two beats observed means no interval history, so the detector
// abstains and the peer stays in the joining/benefit-of-the-doubt state.
func (m *memberState) check(now time.Time) {
	d := m.d
	for n := 0; n < d.lmap.Nodes(); n++ {
		if n == d.node {
			continue
		}
		ps := d.peer(n)
		if ps == nil || ps.dead.Load() || ps.departed.Load() || !ps.member.Load() {
			continue
		}
		det := ps.det.Load()
		if det == nil || det.Samples() < 2 {
			continue
		}
		silence := now.Sub(det.LastHeartbeat())
		if silence < m.cfg.DeadAfter {
			continue
		}
		// Silence must hold across every lane, not just the beat stream:
		// a peer whose heartbeats are stuck behind a lane-0 reconnect but
		// whose parcel lanes still deliver is alive.
		if last := ps.lastFrame.Load(); last != 0 && now.Sub(time.Unix(0, last)) < m.cfg.DeadAfter {
			continue
		}
		if det.Phi(now) < m.cfg.SuspectThreshold {
			continue
		}
		m.declareDead(n, fmt.Sprintf("silent %v, phi %.1f", silence.Round(time.Millisecond), det.Phi(now)))
	}
}

// declareDead transitions peer n to dead and runs the cleanup fan-out:
// release the work units charged to the corpse (so a Mattern Wait in
// progress unblocks), abandon unacked LCO trigger frames addressed to it,
// re-home its localities in the membership map (firing adoption and
// shard-reinstall subscribers), fail every local future registered as
// waiting on state homed there, and gossip the death so the verdict is
// authoritative machine-wide. Only the first transition does any of this;
// a death heard twice is a no-op, which bounds the gossip epidemic.
func (m *memberState) declareDead(n int, why string) {
	d := m.d
	if n == d.node {
		m.excommunicate()
		return
	}
	ps := d.ensurePeer(n)
	if ps == nil {
		return
	}
	// A peer that said goodbye shut down cleanly: its silence is expected,
	// not a death — locally suspected or gossiped. Its totals already live
	// in the departure records, so quiescence needs no release either.
	if ps.departed.Load() {
		return
	}
	released, ok := ps.bury()
	if !ok {
		return
	}
	released += d.dropPendTo(n)
	m.deaths.Add(1)
	m.released.Add(uint64(released))
	d.rt.doneWorkN(released)
	if ev, ok := d.lmap.MarkDead(n); ok {
		m.rehomes.Add(uint64(len(ev.Moved)))
	}
	d.rt.failLostWaiters(n)
	d.rt.recordError(fmt.Errorf("core: node %d declared dead (%s); released %d work units: %w", n, why, released, agas.ErrNodeLost))

	// Shoot-the-other-node gossip: the death verdict propagates to every
	// live peer so the machine converges on one view. Receivers that
	// already marked n dead return early above.
	frame := encodeDead(n)
	for _, p := range d.lmap.LiveNodes() {
		if p == d.node || p == n {
			continue
		}
		_ = d.sendRetry(p, frame)
	}
}

// excommunicate handles this node being declared dead by a live peer: the
// machine has moved on without us, and partition heal is unsupported. We
// mark every peer dead locally so held work units release and a local
// Wait/Shutdown can complete, then stop beating. The process keeps
// running so its operator can read metrics and exit cleanly.
func (m *memberState) excommunicate() {
	if !m.excomm.CompareAndSwap(false, true) {
		return
	}
	d := m.d
	for n := 0; n < d.lmap.Nodes(); n++ {
		if n == d.node {
			continue
		}
		ps := d.ensurePeer(n)
		if ps == nil {
			continue
		}
		released, ok := ps.bury()
		if !ok {
			continue
		}
		released += d.dropPendTo(n)
		m.released.Add(uint64(released))
		d.rt.doneWorkN(released)
		d.rt.failLostWaiters(n)
	}
	d.rt.recordError(fmt.Errorf("core: this node was declared dead by the machine: %w", agas.ErrNodeLost))
}

// onBeat handles a heartbeat frame: proof of life, and proof that the
// sender runs membership.
func (d *distState) onBeat(from int, body []byte) {
	if _, ok := decodeBeat(body); !ok {
		d.rt.recordError(fmt.Errorf("core: corrupt beat frame from node %d", from))
		return
	}
	ps := d.ensurePeer(from)
	if ps == nil {
		return
	}
	ps.member.Store(true)
	ps.detector().Heartbeat(time.Now())
	if d.mb != nil {
		d.mb.beatsRecv.Add(1)
	}
}

// onDead handles a gossiped death verdict. The verdict is authoritative:
// a node hearing its own death is excommunicated rather than arguing.
func (d *distState) onDead(from int, body []byte) {
	n, ok := decodeDead(body)
	if !ok {
		d.rt.recordError(fmt.Errorf("core: corrupt death frame from node %d", from))
		return
	}
	if d.mb == nil {
		return
	}
	d.mb.declareDead(n, fmt.Sprintf("death gossiped by node %d", from))
}

// onMemberHello admits a peer's membership announcement, carried in the
// connection handshake hello. For a known node it only records that the
// peer runs membership; for an unknown node it is a join: the transport learns the
// joiner's dial address, the membership map grows (verifying the
// announced range continues the partition), and AGAS grows its directory
// and cache to cover the new localities. Join admission is serialized and
// idempotent per node — the hello re-arrives on every reconnect.
func (d *distState) onMemberHello(from int, mh *memberHello) {
	ps := d.ensurePeer(from)
	if ps == nil {
		return
	}
	ps.member.Store(true)
	m := d.mb
	if m == nil {
		return
	}
	m.joinMu.Lock()
	defer m.joinMu.Unlock()
	if from < d.lmap.Nodes() {
		return // startup peer or reconnect: nothing to grow
	}
	if from != d.lmap.Nodes() {
		d.rt.recordError(fmt.Errorf("core: rejecting join of node %d: next node ID is %d", from, d.lmap.Nodes()))
		return
	}
	mt, ok := d.tr.(transport.MemberTransport)
	if !ok {
		d.rt.recordError(fmt.Errorf("core: node %d tried to join but transport cannot grow", from))
		return
	}
	if err := mt.AddPeer(from, mh.addr, mh.lo, mh.hi); err != nil {
		d.rt.recordError(fmt.Errorf("core: rejecting join of node %d: %w", from, err))
		return
	}
	if _, err := d.lmap.AddNode(agas.Range{Lo: mh.lo, Hi: mh.hi}); err != nil {
		d.rt.recordError(fmt.Errorf("core: rejecting join of node %d: %w", from, err))
		return
	}
	d.rt.agas.Grow(d.lmap.Localities())
	m.joins.Add(1)
}

// Beat and death frames are fixed-size little-endian records behind their
// frame kind byte, matching the drain probe's encoding conventions.

func encodeBeat(fp uint64) []byte {
	b := make([]byte, 9)
	b[0] = fBeat
	binary.LittleEndian.PutUint64(b[1:], fp)
	return b
}

func decodeBeat(body []byte) (uint64, bool) {
	if len(body) != 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(body), true
}

func encodeDead(node int) []byte {
	b := make([]byte, 3)
	b[0] = fDead
	binary.LittleEndian.PutUint16(b[1:], uint16(node))
	return b
}

func decodeDead(body []byte) (int, bool) {
	if len(body) != 2 {
		return 0, false
	}
	return int(binary.LittleEndian.Uint16(body)), true
}

// depRegistry maps local waiter futures to the remote node hosting the
// state they await, so a death can fail exactly the futures it strands.
type depRegistry struct {
	mu sync.Mutex
	m  map[agas.GID]int
}

func (dr *depRegistry) track(g agas.GID, node int) {
	dr.mu.Lock()
	if dr.m == nil {
		dr.m = make(map[agas.GID]int)
	}
	dr.m[g] = node
	dr.mu.Unlock()
}

func (dr *depRegistry) drop(g agas.GID) {
	dr.mu.Lock()
	delete(dr.m, g)
	dr.mu.Unlock()
}

func (dr *depRegistry) takeNode(node int) []agas.GID {
	dr.mu.Lock()
	var gs []agas.GID
	for g, n := range dr.m {
		if n == node {
			gs = append(gs, g)
		}
	}
	for _, g := range gs {
		delete(dr.m, g)
	}
	dr.mu.Unlock()
	return gs
}

// trackRemoteFuture registers fgid — a local future that will be resolved
// by a continuation or trigger from whichever node hosts dep — with the
// dependency registry. If that node dies before the future resolves, the
// future fails with the node-lost error instead of hanging; if the node
// is already dead at registration, it fails immediately.
func (r *Runtime) trackRemoteFuture(fgid agas.GID, onReady func(func(any, error)), dep agas.GID) {
	d := r.dist
	if d == nil {
		return
	}
	node, ok := d.lmap.NodeOf(int(dep.Home))
	if !ok || node == d.node {
		return
	}
	r.deps.track(fgid, node)
	onReady(func(any, error) { r.deps.drop(fgid) })
	if d.peerDead(node) {
		r.FailLCO(d.home, fgid, agas.ErrNodeLost.Error())
	}
}

// failLostWaiters fails every registered local future stranded by node's
// death. The failure rides the normal trigger path, so DistLCO dedup and
// plain-future already-set absorption apply.
func (r *Runtime) failLostWaiters(node int) {
	d := r.dist
	if d == nil {
		return
	}
	for _, g := range r.deps.takeNode(node) {
		r.FailLCO(d.home, g, agas.ErrNodeLost.Error())
	}
}

// MemberInfo is one row of a Members snapshot.
type MemberInfo struct {
	// Node is the peer's ID.
	Node int
	// Range is the locality range the node announced when it joined.
	Range agas.Range
	// Alive is false once the node has been declared dead.
	Alive bool
	// Member reports announced membership support (beats expected).
	Member bool
	// Phi is the current accrued suspicion (0 for self, the dead, and
	// peers with no beat history).
	Phi float64
}

// Members snapshots the machine's membership as this node sees it.
func (r *Runtime) Members() []MemberInfo {
	d := r.dist
	if d == nil {
		return []MemberInfo{{Node: 0, Range: agas.Range{Lo: 0, Hi: r.Localities()}, Alive: true}}
	}
	now := time.Now()
	out := make([]MemberInfo, 0, d.lmap.Nodes())
	for n := 0; n < d.lmap.Nodes(); n++ {
		rg, _ := d.lmap.NodeRange(n)
		mi := MemberInfo{Node: n, Range: rg, Alive: d.lmap.Alive(n)}
		if n == d.node {
			mi.Member = d.mb != nil
			out = append(out, mi)
			continue
		}
		if ps := d.peer(n); ps != nil {
			mi.Member = ps.member.Load()
			if ps.dead.Load() {
				mi.Alive = false
			}
			if mi.Alive && mi.Member {
				if det := ps.det.Load(); det != nil {
					mi.Phi = det.Phi(now)
				}
			}
		}
		out = append(out, mi)
	}
	return out
}

// SubscribeMembership registers fn to run on every membership change
// (joins and deaths) observed by this node. Callbacks fire synchronously
// after the new membership view is published, in registration order, and
// must not call back into membership mutators. Single-node runtimes never
// fire.
func (r *Runtime) SubscribeMembership(fn func(agas.MemberEvent)) {
	if r.dist == nil {
		return
	}
	r.dist.lmap.Subscribe(fn)
}
