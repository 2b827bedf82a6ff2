package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/agas"
	"repro/internal/core"
	"repro/internal/parcel"
)

// rpc-pingpong: one client on locality 0 (node 0) calls an echo action on
// an object of locality 2 (node 1) with a 16-byte argument, one call in
// flight. It is the bare per-parcel path with nothing to amortize it.

const (
	echoAction = "pxperf.echo"
	echoBytes  = 16
	// rpcWarmCalls run on every machine before it is measured.
	rpcWarmCalls = 2000
	// rpcWindow is one ping-pong window.
	rpcWindow = time.Second
	// pipeWindow and pipeBatch shape the pipelined phase: batches of
	// pipeBatch calls with pipeWindow in flight.
	pipeWindow = 64
	pipeBatch  = 10000
	// maxSpanCalls caps the calls whose spans a traced run writes out.
	maxSpanCalls = 5000
	// layerSumTolerance is how far trace.layer_sum_frac may sit from 1.
	layerSumTolerance = 0.05
)

// rpcProcs is the ping-pong windows' GOMAXPROCS; set-up and the
// pipelined batches run at every processor. One call is in flight, so
// there is no parallel work to spread; on more processors every hand-off
// between the caller, the transport and the worker wakes a sleeping
// processor, and the latency then tracks how fast the host delivers that
// wake-up more than it tracks the program (2 vCPU: p99 ~140 us and a
// run-to-run spread of 0.2, against ~70 us and 0.06-0.12 on one).
const rpcProcs = 1

// rpcSlack is how long an rpc-pingpong child may run beyond its measured
// time (the window and batch under way when the time ran out, and in a
// traced run the codec and AGAS timings) before it is killed.
const rpcSlack = 20 * time.Second

// rpcChildren is how many child processes one rpc-pingpong run splits
// its measured time across. The figures of children of one run differed
// by up to a third (a median batch of 0.18 s in one child, 0.25 s in the
// next); nine children pool a run's windows and batches over more of
// the host's states than three.
const rpcChildren = 9

// benchRPC is the parent side of rpc-pingpong. The traced run measures
// half its time untraced and half traced, one child each.
func benchRPC(seed uint64, seconds float64, traced bool) (map[string]float64, account, error) {
	var acct account
	if !traced {
		dur := seconds / rpcChildren
		r, err := runChildren(rpcChildren, phaseBound(dur, rpcSlack), "-phase", "rpc", "-dur", fmt.Sprint(dur))
		if err != nil {
			return nil, acct, err
		}
		acct.add(r)
		return r.Values, acct, nil
	}
	half := seconds / 2
	plain, err := runChild(phaseBound(half, rpcSlack), "-phase", "rpc", "-dur", fmt.Sprint(half))
	if err != nil {
		return nil, acct, err
	}
	tr, err := runChild(phaseBound(half, rpcSlack), "-phase", "rpc", "-dur", fmt.Sprint(half), "-traced")
	if err != nil {
		return nil, acct, err
	}
	acct.add(plain)
	acct.add(tr)
	vals := tr.Values
	if vals == nil {
		vals = map[string]float64{}
	}
	vals["trace.overhead_frac"] = ratio(vals["op_p50_us"], plain.Values["op_p50_us"]) - 1
	if !sameProgram(plain.Values, vals) {
		fmt.Fprintln(os.Stderr, "pxperf: traced machine negotiated other wire features than the untraced one")
		acct.wrong++
	}
	if d := vals["trace.layer_sum_frac"] - 1; d > layerSumTolerance || d < -layerSumTolerance {
		fmt.Fprintf(os.Stderr, "pxperf: rpc layer sum %.4f outside 1±%v\n", vals["trace.layer_sum_frac"], layerSumTolerance)
		acct.wrong++
	}
	return vals, acct, nil
}

// rpcProbe holds the traced run's boundary timestamps on node 1. Only
// one call is in flight, so the latest stamp belongs to the current call.
type rpcProbe struct {
	frameAt, actStart, actEnd atomic.Int64
}

func registerEcho(probe *rpcProbe) func(*core.Runtime) {
	return func(rt *core.Runtime) {
		rt.MustRegisterAction(echoAction, func(ctx *core.Context, target any, args *parcel.Reader) (any, error) {
			t0 := nowNs()
			b := args.Bytes()
			if err := args.Err(); err != nil {
				return nil, err
			}
			out := append([]byte(nil), b...)
			if probe != nil {
				probe.actStart.Store(t0)
				probe.actEnd.Store(nowNs())
			}
			return out, nil
		})
	}
}

// rpcMachine builds the machine and places the echo object on node 1.
func rpcMachine(probe *rpcProbe) (*machine, agas.GID, error) {
	var onParcel []func(int64)
	if probe != nil {
		onParcel = []func(int64){nil, func(at int64) { probe.frameAt.Store(at) }}
	}
	m, err := newMachine(0, registerEcho(probe), probe != nil, onParcel)
	if err != nil {
		return nil, agas.GID{}, err
	}
	return m, m.rts[1].NewDataAt(nodeLocalities[1].Lo, "echo"), nil
}

// echoPayload is call i's argument, a function of the seed.
func echoPayload(seed uint64, i int) []byte {
	b := make([]byte, echoBytes)
	binary.LittleEndian.PutUint64(b, splitmix64(seed^uint64(i)))
	binary.LittleEndian.PutUint64(b[8:], splitmix64(seed+uint64(i)))
	return b
}

// echoOK reports whether a call's result is its argument.
func echoOK(v any, err error, want []byte) bool {
	got, ok := v.([]byte)
	return err == nil && ok && bytes.Equal(got, want)
}

// rpcRun is one rpc-pingpong child: the machine it is measuring, the
// index of its next call (whose argument is echoPayload(seed, call)), and
// what its ping-pong windows recorded.
type rpcRun struct {
	prog  *progress
	seed  uint64
	probe *rpcProbe
	m     *machine
	dest  agas.GID
	call  int

	setups           []float64
	p50s, p99s, rate []float64 // one per window
	calls            int
	alloc            uint64

	// Traced runs only.
	segs  [5][]float64 // call, wire, queue, action, reply (ns)
	e2e   []float64
	spans spanWriter
	cnt   map[string]float64
	idle  []float64
	wire  []*wireRec
}

// fresh replaces the machine with a new one, verified and warmed up. Its
// build, up to the first verified call, is one set-up sample.
//
// Every ping-pong window and every pipelined batch gets a fresh machine
// because each call leaves memory behind in the runtime (README.md, Known
// defects): on one machine the live heap grows all run long, each
// collection's mark phase grows with it (to most of a second after 200k
// calls), and a window's timings then depend on whether a long mark
// happened to overlap it. A fresh machine keeps every window on the same
// small heap.
func (r *rpcRun) fresh() {
	if r.m != nil {
		r.m.close()
	}
	t0 := time.Now()
	var err error
	if r.m, r.dest, err = rpcMachine(r.probe); err != nil {
		fmt.Fprintln(os.Stderr, "pxperf: rpc machine:", err)
		os.Exit(1)
	}
	r.echo()
	r.setups = append(r.setups, time.Since(t0).Seconds())
	for i := 0; i < rpcWarmCalls; i++ {
		r.echo()
	}
	for _, w := range r.m.wire {
		if w != nil {
			w.reset()
		}
	}
}

// echo makes one unmeasured call (set-up, warm-up) and checks its result.
func (r *rpcRun) echo() {
	want := echoPayload(r.seed, r.call)
	r.call++
	v, err := r.m.rts[0].CallFrom(0, r.dest, echoAction, parcel.NewArgs().Bytes(want).Encode()).Get()
	if !echoOK(v, err, want) {
		r.prog.wrong.Add(1)
	}
}

func phaseRPC(prog *progress, seed uint64, dur float64, traced bool) (map[string]float64, map[string][]float64) {
	procs := runtime.GOMAXPROCS(0)
	vals := map[string]float64{"gomaxprocs": rpcProcs, "gomaxprocs.pipelined": float64(procs)}
	r := &rpcRun{prog: prog, seed: seed, cnt: map[string]float64{}, wire: []*wireRec{{}, {}}}
	if traced {
		r.probe = &rpcProbe{}
	}

	// The phase alternates a one-second ping-pong window (one call in
	// flight, at rpcProcs) with a pipelined batch (pipeWindow calls in
	// flight, at every processor), each on a fresh machine built at every
	// processor, so both sample the host over the whole phase. Latency
	// percentiles and the call rate are medians over windows: a burst from
	// a neighbour on a shared host that covers a minority of the windows
	// moves them little, where a p99 over the pooled calls would take its
	// whole tail from the burst.
	var batches []float64
	end := time.Now().Add(time.Duration(dur * float64(time.Second)))
	for len(batches) == 0 || time.Now().Before(end) {
		r.fresh()
		runtime.GOMAXPROCS(rpcProcs)
		r.window()
		runtime.GOMAXPROCS(procs)
		r.fresh()
		batches = append(batches, r.pipelined())
	}

	n := float64(r.calls)
	vals["alloc_bytes_per_op"] = ratio(float64(r.alloc), n)
	vals["ops_per_s"] = median(r.rate)
	scale(r.p50s, 1e-3)
	scale(r.p99s, 1e-3)
	vals["op_p50_us"] = median(r.p50s)
	vals["op_p99_us"] = median(r.p99s)
	vals["samples"] = n
	if per := r.calls / len(r.p50s); !p99Valid(per) {
		fmt.Fprintf(os.Stderr, "pxperf: only %d rpc samples a window, p99 unreliable\n", per)
	}
	vals["solve_s"] = median(batches)
	vals["setup_s"] = median(r.setups)
	vals["mem_peak_mb"] = peakRSSMiB()
	wireParity(vals, counters(r.m.rts...))

	if traced {
		runtimeLayers(vals, map[string]float64{}, r.cnt, n)
		vals["locality.idle_frac"] = mean(r.idle)
		(&machine{wire: r.wire}).wireLayer(vals, n)
		rpcLayers(vals, r.segs, r.e2e)
		vals["agas.resolve_ns_p50"] = resolveNs(r.m.rts[0], 0, []agas.GID{r.dest})
		codecLayer(vals, "echo", r.dest, echoAction, parcel.NewArgs().Bytes(echoPayload(seed, 0)).Encode())
		if err := r.spans.write(spanFile("rpc-pingpong")); err != nil {
			fmt.Fprintln(os.Stderr, "pxperf: write spans:", err)
		}
	}
	samples := map[string][]float64{
		"op_p50_us": r.p50s,
		"op_p99_us": r.p99s,
		"ops_per_s": r.rate,
		"solve_s":   batches,
		"setup_s":   r.setups,
	}
	return vals, samples
}

// window runs one ping-pong window on the current machine and records
// its median and p99 latency (ns) and its call rate; a traced run also
// records every call's segments and the window's counters and wire
// timings.
func (r *rpcRun) window() {
	c0 := counters(r.m.rts...)
	alloc0 := totalAlloc()
	var win []float64
	start := nowNs()
	end := start + int64(rpcWindow)
	for t5 := start; t5 < end; {
		want := echoPayload(r.seed, r.call)
		r.call++
		args := parcel.NewArgs().Bytes(want).Encode()
		r.prog.attempted.Add(1)
		t0 := nowNs()
		fut := r.m.rts[0].CallFrom(0, r.dest, echoAction, args)
		t1 := nowNs()
		v, err := fut.Get()
		t5 = nowNs()
		if !echoOK(v, err, want) {
			r.prog.wrong.Add(1)
			continue
		}
		r.prog.ok.Add(1)
		win = append(win, float64(t5-t0))
		if r.probe == nil {
			continue
		}
		r.e2e = append(r.e2e, float64(t5-t0))
		t2, t3, t4 := r.probe.frameAt.Load(), r.probe.actStart.Load(), r.probe.actEnd.Load()
		if t2 < t0 || t3 < t2 || t4 < t3 || t5 < t4 {
			continue // a boundary not attributable to this call
		}
		for k, d := range []int64{t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4} {
			r.segs[k] = append(r.segs[k], float64(d))
		}
		if len(r.e2e) <= maxSpanCalls {
			r.spans.call(int64(r.call), t0, t1, t2, t3, t4, t5)
		}
	}
	elapsed := float64(nowNs()-start) / 1e9
	r.alloc += totalAlloc() - alloc0
	ws := sorted(win)
	r.p50s, r.p99s = append(r.p50s, pct(ws, 0.5)), append(r.p99s, pct(ws, 0.99))
	r.rate = append(r.rate, float64(len(win))/elapsed)
	r.calls += len(win)
	if r.probe != nil {
		addCounters(r.cnt, c0, counters(r.m.rts...))
		r.idle = append(r.idle, idleFrac(r.m.rts...))
		for i, rec := range r.m.wire {
			r.wire[i].merge(rec)
		}
	}
}

// pipelined makes pipeBatch verified calls with pipeWindow in flight and
// returns how many seconds they took.
func (r *rpcRun) pipelined() float64 {
	t0 := time.Now()
	window := make([]chan struct{}, pipeWindow)
	for i := 0; i < pipeBatch; i++ {
		slot := i % pipeWindow
		if window[slot] != nil {
			<-window[slot]
		}
		want := echoPayload(r.seed, r.call)
		r.call++
		r.prog.attempted.Add(1)
		fut := r.m.rts[0].CallFrom(0, r.dest, echoAction, parcel.NewArgs().Bytes(want).Encode())
		done := make(chan struct{})
		window[slot] = done
		fut.OnReady(func(v any, err error) {
			if echoOK(v, err, want) {
				r.prog.ok.Add(1)
			} else {
				r.prog.wrong.Add(1)
			}
			close(done)
		})
	}
	for _, d := range window {
		if d != nil {
			<-d
		}
	}
	return time.Since(t0).Seconds()
}

// addCounters adds one window's counter deltas (c0 to c1) to acc. The
// queue peak, a high-water mark, keeps its largest value instead.
func addCounters(acc, c0, c1 map[string]float64) {
	for k, v := range delta(c0, c1) {
		acc[k] += v
	}
	acc["px.sched.queue_peak"] = max(acc["px.sched.queue_peak"], c1["px.sched.queue_peak"])
}

// rpcLayers reports the per-call segments of the traced ping-pong. The
// segments are consecutive boundaries of one call (CallFrom entry and
// return, the request frame reaching node 1's handler, the echo body's
// start and end, the caller seeing the reply), so they telescope to the
// call's latency: trace.layer_sum_frac, the sum of their means over the
// mean latency of every call, is 1 unless boundaries went missing.
func rpcLayers(vals map[string]float64, segs [5][]float64, e2e []float64) {
	var sum float64
	for _, s := range segs {
		sum += mean(s)
	}
	vals["trace.layer_sum_frac"] = ratio(sum, mean(e2e))
	call, wire, queue, action, reply := sorted(segs[0]), sorted(segs[1]), sorted(segs[2]), sorted(segs[3]), sorted(segs[4])
	vals["core.call_ns_p50"] = pct(call, 0.5)
	vals["core.call_ns_p99"] = pct(call, 0.99)
	vals["transport.wire_us_p50"] = pct(wire, 0.5) / 1e3
	vals["locality.queue_wait_us_p50"] = pct(queue, 0.5) / 1e3
	vals["locality.queue_wait_us_p99"] = pct(queue, 0.99) / 1e3
	vals["core.action_ns_p50"] = pct(action, 0.5)
	vals["lco.reply_us_p50"] = pct(reply, 0.5) / 1e3
	vals["lco.reply_us_p99"] = pct(reply, 0.99) / 1e3
}

// call records one ping-pong call: the root span and its five segments.
func (w *spanWriter) call(op, t0, t1, t2, t3, t4, t5 int64) {
	w.spans = append(w.spans,
		span{"rpc.call", t0, t5, "", op},
		span{"core.call", t0, t1, "rpc.call", op},
		span{"transport.wire", t1, t2, "rpc.call", op},
		span{"locality.queue", t2, t3, "rpc.call", op},
		span{"core.action", t3, t4, "rpc.call", op},
		span{"lco.reply", t4, t5, "rpc.call", op},
	)
}
