package core

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/parcel"
	"repro/internal/transport"
)

// wireTap decorates one node's transport. It counts the frames the node
// sends and receives by kind, sums the counts of the cumulative fAck
// frames it sends, records every send made from inside the receive
// handler by the kind of frame being handled, and can hold outbound
// frames back until released.
type wireTap struct {
	transport.Transport

	mu          sync.Mutex
	handlerG    uint64 // goroutine running the handler
	handling    byte   // kind of the frame being handled; 0 outside it
	sent        map[byte]int
	recvd       map[byte]int
	fromHandler map[byte]int
	ackFrames   int
	ackSum      uint64
	hold        bool
	held        []heldFrame
}

type heldFrame struct {
	node  int
	frame []byte
}

func newWireTap(tr transport.Transport) *wireTap {
	return &wireTap{Transport: tr, sent: map[byte]int{}, recvd: map[byte]int{}, fromHandler: map[byte]int{}}
}

// goid returns the calling goroutine's ID.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	n, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return n
}

func (w *wireTap) SetHandler(h transport.Handler) {
	w.Transport.SetHandler(func(from int, frame []byte) {
		w.mu.Lock()
		w.handlerG, w.handling = goid(), frame[0]
		w.mu.Unlock()
		h(from, frame)
		w.mu.Lock()
		w.handling = 0
		w.recvd[frame[0]]++
		w.mu.Unlock()
	})
}

func (w *wireTap) Send(node int, frame []byte) error {
	g := goid()
	w.mu.Lock()
	if w.handling != 0 && g == w.handlerG {
		w.fromHandler[w.handling]++
	}
	w.sent[frame[0]]++
	if frame[0] == fAck {
		n, _ := decodeAckCount(frame[1:])
		w.ackFrames++
		w.ackSum += n
	}
	if w.hold {
		w.held = append(w.held, heldFrame{node, append([]byte(nil), frame...)})
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	return w.Transport.Send(node, frame)
}

// release sends the held frames and stops holding.
func (w *wireTap) release() {
	w.mu.Lock()
	held := w.held
	w.hold, w.held = false, nil
	w.mu.Unlock()
	for _, h := range held {
		w.Transport.Send(h.node, h.frame)
	}
}

// count reads one of the tap's counters under its lock.
func (w *wireTap) count(f func() int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return f()
}

// startReceiptPair builds a two-node machine over a loopback fabric with a
// tap on each node. "rcpt.echo" returns its target; "rcpt.sink" returns
// nothing.
func startReceiptPair(t *testing.T) ([2]*Runtime, [2]*wireTap) {
	t.Helper()
	fab := transport.NewFabric(2)
	var rts [2]*Runtime
	var taps [2]*wireTap
	for i := range rts {
		taps[i] = newWireTap(fab.Node(i))
		rts[i] = New(Config{
			Transport:          taps[i],
			NodeID:             i,
			NodeLocalities:     []agas.Range{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}},
			WorkersPerLocality: 2,
			Register: func(rt *Runtime) {
				rt.MustRegisterAction("rcpt.echo", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
					return target, nil
				})
				rt.MustRegisterAction("rcpt.sink", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
					return nil, nil
				})
			},
		})
	}
	return rts, taps
}

// waitFor polls cond until it holds. It bounds a wait for an event, not
// how long the event may take: the deadline only turns a hang into a
// failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPlainParcelReceiveMakesNoSend: the receive handler of a plain parcel
// owes its receipt instead of sending it, so a receive goroutine never
// blocks in a transport send for a parcel. Call/reply traffic both ways
// carries the receipts on the parcels, and every receipt is accounted.
func TestPlainParcelReceiveMakesNoSend(t *testing.T) {
	rts, taps := startReceiptPair(t)
	a := rts[0].NewDataAt(0, int64(7))
	b := rts[1].NewDataAt(2, int64(42))
	for i := 0; i < 200; i++ {
		if v, err := rts[0].CallFrom(1, b, "rcpt.echo", nil).Get(); err != nil || v.(int64) != 42 {
			t.Fatalf("call %d 0->1: %v %v", i, v, err)
		}
		if v, err := rts[1].CallFrom(3, a, "rcpt.echo", nil).Get(); err != nil || v.(int64) != 7 {
			t.Fatalf("call %d 1->0: %v %v", i, v, err)
		}
	}
	for _, rt := range rts {
		rt.Shutdown()
	}
	for i, rt := range rts {
		for _, err := range rt.Errors() {
			t.Errorf("node %d: %v", i, err)
		}
		if n := taps[i].count(func() int { return taps[i].fromHandler[fParcelI] }); n != 0 {
			t.Errorf("node %d: the parcel receive handler made %d sends", i, n)
		}
		d := rt.dist
		if d.acksPiggybacked.Load() == 0 {
			t.Errorf("node %d: no receipt rode a parcel", i)
		}
		if got, want := d.acksPiggybacked.Load()+d.acksStandalone.Load(), d.recv.Load(); got != want {
			t.Errorf("node %d: sent %d receipts for %d received parcels", i, got, want)
		}
		if p := rt.pending.Load(); p != 0 {
			t.Errorf("node %d: %d work units leaked", i, p)
		}
	}
}

// TestOneWayFloodReleasedByStandaloneReceipts: parcels that flow one way
// only have no parcel to ride back on, so cumulative standalone fAcks
// carry every receipt. Wait returns and no work unit is leaked.
func TestOneWayFloodReleasedByStandaloneReceipts(t *testing.T) {
	rts, taps := startReceiptPair(t)
	defer func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
	}()
	const n = 2000
	sink := rts[1].NewDataAt(2, int64(0))
	for i := 0; i < n; i++ {
		rts[0].SendFrom(i%2, parcel.New(sink, "rcpt.sink", nil))
	}
	rts[0].Wait()
	d0, d1 := rts[0].dist, rts[1].dist
	if p := rts[0].pending.Load(); p != 0 {
		t.Fatalf("node 0: %d work units still held after Wait", p)
	}
	ps := d0.peer(1)
	ps.mu.Lock()
	out := ps.outstanding
	ps.mu.Unlock()
	if out != 0 {
		t.Fatalf("node 0: %d parcels still unacknowledged after Wait", out)
	}
	if got := d1.acksPiggybacked.Load(); got != 0 {
		t.Fatalf("node 1 sent no parcels, yet %d receipts rode one", got)
	}
	if got := d1.acksStandalone.Load(); got != n {
		t.Fatalf("node 1 sent %d standalone receipts, want %d", got, n)
	}
	frames := taps[1].count(func() int { return taps[1].ackFrames })
	sum := taps[1].count(func() int { return int(taps[1].ackSum) })
	if sum != n || frames < 1 || frames > n {
		t.Fatalf("node 1 sent %d fAck frames carrying %d receipts, want 1..%d frames carrying %d", frames, sum, n, n)
	}
	if got := taps[1].count(func() int { return taps[1].sent[fParcelI] }); got != 0 {
		t.Fatalf("node 1 sent %d parcel frames in a one-way flood", got)
	}
}

// TestCarriedReceiptsStopFlushTimer: a parcel that carries every owed
// receipt stops the flush timer guarding them, so call/reply traffic
// leaves no timer behind to wake up with nothing to flush.
func TestCarriedReceiptsStopFlushTimer(t *testing.T) {
	rts, _ := startReceiptPair(t)
	defer func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
	}()
	d1 := rts[1].dist
	ps := d1.peer(0)
	// An hour-long timer cannot fire during the test: only the parcel can
	// disarm it. Node 0 has nothing outstanding, so the receipt releases
	// nothing there.
	ps.owed.Add(1)
	d1.armAckFlush(0, ps, time.Hour)
	sink := rts[0].NewDataAt(0, int64(0))
	rts[1].SendFrom(2, parcel.New(sink, "rcpt.sink", nil))
	rts[1].Wait()
	if got := d1.acksPiggybacked.Load(); got != 1 {
		t.Fatalf("the parcel carried %d receipts, want 1", got)
	}
	ps.mu.Lock()
	pending := ps.ackTimer.Stop()
	ps.mu.Unlock()
	if pending || ps.ackArmed.Load() {
		t.Fatalf("flush timer left armed (pending %v) after a parcel carried its receipts", pending)
	}
}

// TestStandaloneReceiptIsCumulative: receipts owed while the flush is
// pending leave in one fAck carrying their count, and a count larger than
// the sender's outstanding parcels releases only what is outstanding.
func TestStandaloneReceiptIsCumulative(t *testing.T) {
	rts, taps := startReceiptPair(t)
	// Terminate, not Shutdown: a miscounted receipt would leave Wait
	// blocked forever instead of failing.
	defer func() {
		for _, rt := range rts {
			rt.Terminate()
		}
	}()
	d1 := rts[1].dist
	ps := d1.peer(0)
	ps.ackArmed.Store(true) // hold the flush timer off
	for i := 0; i < 5; i++ {
		d1.owe(0, ps, time.Now().UnixNano())
	}
	d1.flushAcks(0, ps)
	ps.ackArmed.Store(false)
	if f, s := taps[1].count(func() int { return taps[1].ackFrames }), taps[1].count(func() int { return int(taps[1].ackSum) }); f != 1 || s != 5 {
		t.Fatalf("five owed receipts left in %d frames carrying %d, want 1 frame carrying 5", f, s)
	}
	waitFor(t, "node 0 to receive the receipt", func() bool {
		return taps[0].count(func() int { return taps[0].recvd[fAck] }) == 1
	})
	if p := rts[0].pending.Load(); p != 0 {
		t.Fatalf("a receipt for 5 parcels with none outstanding moved pending to %d", p)
	}
}

// TestDeathWithOwedReceiptsReleasesOnce: a peer declared dead while it
// owes receipts releases each outstanding unit exactly once — at the
// death — and its receipts arriving afterwards release nothing more.
func TestDeathWithOwedReceiptsReleasesOnce(t *testing.T) {
	rts, taps := startReceiptPair(t)
	const n = 100
	sink := rts[1].NewDataAt(2, int64(0))
	taps[1].mu.Lock()
	taps[1].hold = true // node 1's receipts stay on node 1's side
	taps[1].mu.Unlock()
	for i := 0; i < n; i++ {
		rts[0].SendFrom(0, parcel.New(sink, "rcpt.sink", nil))
	}
	waitFor(t, "node 1 to receive the flood", func() bool { return rts[1].dist.recv.Load() == n })
	d0 := rts[0].dist
	if p := rts[0].pending.Load(); p != n {
		t.Fatalf("node 0 holds %d work units before the death, want %d", p, n)
	}
	m := newMemberState(d0, MembershipConfig{}, "")
	m.declareDead(1, "test")
	if got := m.released.Load(); got != n {
		t.Fatalf("the death released %d units, want %d", got, n)
	}
	if p := rts[0].pending.Load(); p != 0 {
		t.Fatalf("node 0 holds %d work units after the death, want 0", p)
	}
	// The corpse's receipts now arrive: every unit is already released.
	rts[1].dist.flushAllAcks()
	want := taps[1].count(func() int { return len(taps[1].held) })
	taps[1].release()
	waitFor(t, "node 0 to receive node 1's held frames", func() bool {
		return taps[0].count(func() int {
			k := 0
			for _, c := range taps[0].recvd {
				k += c
			}
			return k
		}) >= want
	})
	if p := rts[0].pending.Load(); p != 0 {
		t.Fatalf("receipts from the dead moved node 0's pending to %d", p)
	}
	if got := taps[0].count(func() int { return taps[0].recvd[fAck] }); got == 0 {
		t.Fatal("no receipt from the dead peer arrived; the test proves nothing")
	}
	rts[1].Terminate()
	rts[0].Shutdown()
}

// TestReplyFuturesLeaveNoCacheLines: a remote call's one-shot reply future
// leaves no translation behind on either node — the caller's Free evicts
// the line its reply warmed, and the callee never caches a guess toward
// the caller's home — so the caches stay O(1) however many calls ran.
func TestReplyFuturesLeaveNoCacheLines(t *testing.T) {
	rts, _ := startReceiptPair(t)
	defer func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
	}()
	b := rts[1].NewDataAt(2, int64(1))
	for i := 0; i < 10000; i++ {
		if _, err := rts[0].CallFrom(0, b, "rcpt.echo", nil).Get(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	rts[0].Wait()
	for i, rt := range rts {
		lines := 0
		for loc := 0; loc < rt.Localities(); loc++ {
			if rt.Resident(loc) {
				lines += rt.agas.CachedLines(loc)
			}
		}
		if lines > 8 {
			t.Errorf("node %d caches %d translations after 10000 calls, want O(1)", i, lines)
		}
	}
}
