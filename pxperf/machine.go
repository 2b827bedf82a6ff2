package main

import (
	"sync"
	"sync/atomic"

	parallex "repro"
	"repro/internal/agas"
	"repro/internal/core"
	"repro/internal/transport"
)

// nodeLocalities is the 2-node machine of rpc-pingpong and kv-open: two
// localities per node, so the KV service has four shards, two per node.
var nodeLocalities = []agas.Range{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}}

// machine is a 2-node machine built in this process over the default TCP
// transport (which negotiates its same-host Unix-socket fabric on its own;
// the run records which path it took).
type machine struct {
	rts  []*core.Runtime
	wire []*wireRec // per node; nil entries unless the machine is traced
}

// newMachine builds and starts the machine. admit is Config.AdmitLimit;
// register installs the workload's actions on every node. A traced
// machine wraps each node's transport in timedTCP; onParcel, when set,
// receives the arrival time of every parcel frame at that node.
func newMachine(admit int, register func(*core.Runtime), traced bool, onParcel []func(int64)) (*machine, error) {
	ranges := make([][2]int, len(nodeLocalities))
	for i, r := range nodeLocalities {
		ranges[i] = [2]int{r.Lo, r.Hi}
	}
	tcps := make([]*transport.TCP, len(nodeLocalities))
	addrs := make([]string, len(tcps))
	for i := range tcps {
		tr, err := parallex.NewTCPTransport(parallex.TCPTransportConfig{
			Self:   i,
			Listen: "127.0.0.1:0",
			Peers:  make([]string, len(tcps)),
			Ranges: ranges,
		})
		if err != nil {
			for _, t := range tcps[:i] {
				t.Close()
			}
			return nil, err
		}
		tcps[i] = tr
		addrs[i] = tr.Addr().String()
	}
	m := &machine{wire: make([]*wireRec, len(tcps))}
	for i, tr := range tcps {
		tr.SetPeers(addrs)
		var t transport.Transport = tr
		if traced {
			rec := &wireRec{}
			if i < len(onParcel) {
				rec.onParcel = onParcel[i]
			}
			m.wire[i] = rec
			t = &timedTCP{TCP: tr, rec: rec}
		}
		m.rts = append(m.rts, parallex.New(parallex.Config{
			Transport:          t,
			NodeID:             i,
			NodeLocalities:     nodeLocalities,
			WorkersPerLocality: 2,
			AdmitLimit:         admit,
			Register:           register,
		}))
	}
	return m, nil
}

// close drains the machine and shuts every node down.
func (m *machine) close() {
	m.rts[0].Wait()
	for _, rt := range m.rts {
		rt.Shutdown()
	}
}

// idleFrac is the mean starvation fraction over the machine's resident
// localities (the S of SLOW).
func idleFrac(rts ...*core.Runtime) float64 {
	var s float64
	var n int
	for _, rt := range rts {
		for loc, f := range rt.IdleFractions() {
			if rt.Resident(loc) {
				s += f
				n++
			}
		}
	}
	return ratio(s, float64(n))
}

// Frame kinds 1 (plain) and 12 (interned action) of the runtime's node
// protocol carry parcels; every other kind is control traffic (acks,
// beats, drain probes).
func isParcelFrame(frame []byte) bool {
	return len(frame) > 0 && (frame[0] == 1 || frame[0] == 12)
}

// timedTCP decorates one node's TCP transport for the traced run, timing
// every send and every receive-handler call. Embedding *transport.TCP
// forwards every optional interface the runtime probes for (hello,
// lanes, membership, batch and same-host statistics), so the traced
// machine speaks the same protocol as the untraced one; the run checks
// that through the px.wire and px.membership counters.
type timedTCP struct {
	*transport.TCP
	rec *wireRec
}

func (t *timedTCP) Send(node int, frame []byte) error {
	t0 := nowNs()
	err := t.TCP.Send(node, frame)
	t.rec.sent(nowNs()-t0, len(frame))
	return err
}

func (t *timedTCP) SendLane(node, lane int, frame []byte) error {
	t0 := nowNs()
	err := t.TCP.SendLane(node, lane, frame)
	t.rec.sent(nowNs()-t0, len(frame))
	return err
}

func (t *timedTCP) SetHandler(h transport.Handler) {
	t.TCP.SetHandler(func(from int, frame []byte) {
		t0 := nowNs()
		if t.rec.onParcel != nil && isParcelFrame(frame) {
			t.rec.onParcel(t0)
		}
		h(from, frame)
		t.rec.handled(nowNs() - t0)
	})
}

// maxWireSamples caps each wire recorder's duration samples.
const maxWireSamples = 1 << 20

// wireRec collects one node's transport timings.
type wireRec struct {
	onParcel func(at int64)

	mu        sync.Mutex
	sendNs    []float64
	handlerNs []float64
	frames    atomic.Int64
	bytes     atomic.Int64
}

func (w *wireRec) sent(ns int64, n int) {
	w.frames.Add(1)
	w.bytes.Add(int64(n))
	w.mu.Lock()
	if len(w.sendNs) < maxWireSamples {
		w.sendNs = append(w.sendNs, float64(ns))
	}
	w.mu.Unlock()
}

func (w *wireRec) handled(ns int64) {
	w.mu.Lock()
	if len(w.handlerNs) < maxWireSamples {
		w.handlerNs = append(w.handlerNs, float64(ns))
	}
	w.mu.Unlock()
}

// merge adds what o recorded to w.
func (w *wireRec) merge(o *wireRec) {
	if o == nil {
		return
	}
	o.mu.Lock()
	w.mu.Lock()
	w.sendNs = append(w.sendNs, o.sendNs...)
	w.handlerNs = append(w.handlerNs, o.handlerNs...)
	w.mu.Unlock()
	o.mu.Unlock()
	w.frames.Add(o.frames.Load())
	w.bytes.Add(o.bytes.Load())
}

// reset drops what was recorded so far (set-up and warm-up traffic).
func (w *wireRec) reset() {
	w.mu.Lock()
	w.sendNs, w.handlerNs = w.sendNs[:0], w.handlerNs[:0]
	w.mu.Unlock()
	w.frames.Store(0)
	w.bytes.Store(0)
}

// wireLayer reports the transport timings of a traced machine over ops
// operations, from its recorders.
func (m *machine) wireLayer(vals map[string]float64, ops float64) {
	var send, handler []float64
	var frames, bytes float64
	for _, w := range m.wire {
		if w == nil {
			continue
		}
		w.mu.Lock()
		send = append(send, w.sendNs...)
		handler = append(handler, w.handlerNs...)
		w.mu.Unlock()
		frames += float64(w.frames.Load())
		bytes += float64(w.bytes.Load())
	}
	send, handler = sorted(send), sorted(handler)
	vals["transport.send_ns_p50"] = pct(send, 0.5)
	vals["transport.send_ns_p99"] = pct(send, 0.99)
	vals["transport.handler_ns_p50"] = pct(handler, 0.5)
	vals["transport.handler_ns_p99"] = pct(handler, 0.99)
	vals["transport.frames_per_op"] = ratio(frames, ops)
	vals["transport.bytes_per_op"] = ratio(bytes, ops)
}

// delta returns b - a for every counter in b.
func delta(a, b map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(b))
	for k, v := range b {
		out[k] = v - a[k]
	}
	return out
}

// runtimeLayers reports the counter-based per-layer metrics shared by the
// two machine workloads, from the counters before (c0) and after (c1) ops
// operations.
func runtimeLayers(vals, c0, c1 map[string]float64, ops float64, rts ...*core.Runtime) {
	d := delta(c0, c1)
	vals["core.parcels_per_op"] = ratio(d["px.parcels.sent"]+d["px.parcels.local"], ops)
	vals["core.local_parcels_per_op"] = ratio(d["px.parcels.local"], ops)
	vals["agas.cache_hit_frac"] = ratio(d["px.agas.cache_hits"], d["px.agas.resolutions"])
	vals["agas.resolutions_per_op"] = ratio(d["px.agas.resolutions"], ops)
	vals["parcel.pool_hit_frac"] = ratio(d["px.pool.parcel.hits"], d["px.pool.parcel.hits"]+d["px.pool.parcel.misses"])
	vals["parcel.wire_pool_hit_frac"] = ratio(d["px.pool.wire.hits"], d["px.pool.wire.hits"]+d["px.pool.wire.misses"])
	vals["locality.tasks_per_op"] = ratio(d["px.sched.tasks"], ops)
	vals["locality.steal_frac"] = ratio(d["px.sched.steals"]+d["px.sched.steals_local"], d["px.sched.tasks"])
	vals["locality.suspensions_per_op"] = ratio(d["px.sched.suspensions"], ops)
	vals["locality.idle_frac"] = idleFrac(rts...)
	vals["locality.queue_peak"] = c1["px.sched.queue_peak"]
	// Parcel frames per writev round, and sends that waited for room.
	vals["transport.frames_per_batch"] = ratio(d["px.wire.sent"], d["px.wire.batches"])
	vals["transport.backpressured"] = d["px.wire.backpressured"]
}

// wireParity records the protocol features a machine negotiated, so the
// traced run can be checked against the untraced one: interning in use,
// lanes per peer, live members, and same-host connections.
func wireParity(vals map[string]float64, c map[string]float64) {
	interned := 0.0
	if c["px.wire.interned_sent"] > 0 {
		interned = 1
	}
	vals["wire.interned"] = interned
	vals["wire.lanes"] = c["px.wire.lanes"]
	vals["wire.members_live"] = c["px.membership.live"]
	vals["wire.samehost_conns"] = c["px.wire.samehost_conns"]
}

// sameProgram reports whether two phases negotiated the same wire
// features (see wireParity).
func sameProgram(a, b map[string]float64) bool {
	for _, k := range []string{"wire.interned", "wire.lanes", "wire.members_live"} {
		if a[k] != b[k] {
			return false
		}
	}
	return (a["wire.samehost_conns"] > 0) == (b["wire.samehost_conns"] > 0)
}
