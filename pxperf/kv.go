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
	"repro/internal/lco"
	"repro/internal/parcel"
	"repro/internal/workloads"
)

// kv-open: an open loop against the sharded KV service on the 2-node
// machine, 80% gets and 20% puts of 1 KiB values over 4096 uniform keys
// on 4 shards, about half of them on the far node. Rates form a fixed
// doubling ladder; each rung runs in its own child process.

var kvLadder = []float64{2500, 5000, 10000, 20000, 40000}

const (
	// kvNominal is the rung whose latency the end-to-end metrics report.
	kvNominal = 5000
	// kvLatencyLimit is the p99 a rung must meet to count toward
	// kv.max_rate_rps. It was fixed, and written into BENCHMARK.json,
	// before the first measurement.
	kvLatencyLimit = 25 * time.Millisecond
	// kvDrain is how long a rung waits for verdicts after its last due
	// time; a request still unanswered then has failed.
	kvDrain = 2 * time.Second
	kvKeys  = 4096
	kvValue = 1024
	kvPutPc = 20
	// kvAdmit is Config.AdmitLimit, the serving default documented for
	// the KV service.
	kvAdmit = 256
	// kvWindow is the in-flight window of the preload and the scans.
	kvWindow = 64
	// kvScans is how many full verifying scans of all keys a nominal-rung
	// child times, for solve_s, after the rung and on a fresh machine: on
	// the rung's machine the heap has grown with the rung's calls
	// (README.md, Known defects), and a scan's time would depend on it.
	kvScans = 30
	// kvScanTime bounds the scans.
	kvScanTime = 5 * time.Second
	// kvWarm is the warm-up before a rung is measured.
	kvWarm = 500 * time.Millisecond
	// kvSetups is how many times a child builds and loads the machine;
	// it measures on the last one.
	kvSetups = 3
)

// kvSlack is how long a kv-open child may run beyond its measured time
// (set-up, warm-up, draining, scans) before it is killed.
const kvSlack = 15 * time.Second

// kvChildren is how many child processes the nominal rung of an
// untraced run splits its time across.
const kvChildren = 3

// ladderShare is the share of a traced run's seconds each ladder rung
// measures; the traced nominal rung takes the rest.
const ladderShare = 0.14

// benchKV is the parent side of kv-open. The untraced run measures the
// nominal rung. The traced run climbs the whole ladder untraced, one
// child per rung, then measures the nominal rung traced.
//
// max_rate_rps is reported from the traced run (as kv.max_rate_rps) and
// not gated: the receive-path deadlock (README.md) fails rungs from 10k
// req/s up at random, so which rung is highest to pass is a coin flip
// between runs of the same code.
func benchKV(seed uint64, seconds float64, traced bool) (map[string]float64, account, error) {
	var acct account
	if !traced {
		dur := seconds / kvChildren
		r, err := runChildren(kvChildren, phaseBound(dur, kvSlack),
			"-phase", "kv", "-rate", fmt.Sprint(kvNominal), "-dur", fmt.Sprint(dur), "-nominal")
		if err != nil {
			return nil, acct, err
		}
		acct.add(r)
		return r.Values, acct, nil
	}
	vals := map[string]float64{}
	var plain map[string]float64
	var maxRate float64
	for _, rate := range kvLadder {
		dur := ladderShare * seconds
		r, err := runChild(phaseBound(dur, kvSlack),
			"-phase", "kv", "-rate", fmt.Sprint(rate), "-dur", fmt.Sprint(dur))
		if err != nil {
			return nil, acct, err
		}
		tag := fmt.Sprintf(".r%d", int(rate))
		vals["kv.failed_frac"+tag] = ratio(float64(r.Attempted-r.OK), float64(r.Attempted))
		vals["kv.p50_us"+tag] = r.Values["op_p50_us"]
		vals["kv.p99_us"+tag] = r.Values["op_p99_us"]
		fmt.Fprintf(os.Stderr, "pxperf: kv rung %v: p50 %.0fus p99 %.0fus failed %d/%d pass %v\n",
			rate, r.Values["op_p50_us"], r.Values["op_p99_us"], r.Attempted-r.OK, r.Attempted, r.Values["pass"] == 1)
		// The rungs are independent runs; the highest one that passes sets
		// the rate, whether or not a lower one failed.
		if r.Finished && r.Values["pass"] == 1 {
			maxRate = rate
		}
		if rate == kvNominal {
			plain = r.Values
		}
		acct.wrong += r.Wrong
	}
	dur := (1 - ladderShare*float64(len(kvLadder))) * seconds
	tr, err := runChild(phaseBound(dur, kvSlack),
		"-phase", "kv", "-rate", fmt.Sprint(kvNominal), "-dur", fmt.Sprint(dur), "-nominal", "-traced")
	if err != nil {
		return nil, acct, err
	}
	acct.add(tr)
	for k, v := range tr.Values {
		vals[k] = v
	}
	vals["kv.max_rate_rps"] = maxRate
	vals["trace.overhead_frac"] = ratio(vals["op_p50_us"], plain["op_p50_us"]) - 1
	if tr.Finished && plain != nil && !sameProgram(plain, vals) {
		fmt.Fprintln(os.Stderr, "pxperf: traced machine negotiated other wire features than the untraced one")
		acct.wrong++
	}
	return vals, acct, nil
}

// kvInputs is everything a kv-open child derives from the seed: each
// key's value (preload writes it and every put rewrites the same bytes,
// so any get can be checked byte for byte) and the encoded requests.
type kvInputs struct {
	keys    []string
	values  [][]byte
	getArgs [][]byte
	putArgs [][]byte
}

func newKVInputs(seed uint64) *kvInputs {
	in := &kvInputs{}
	for k := 0; k < kvKeys; k++ {
		key := fmt.Sprintf("key%05d", k)
		v := make([]byte, kvValue)
		for j := 0; j < kvValue; j += 8 {
			binary.LittleEndian.PutUint64(v[j:], splitmix64(seed<<16^uint64(k)<<8^uint64(j)))
		}
		in.keys = append(in.keys, key)
		in.values = append(in.values, v)
		in.getArgs = append(in.getArgs, parcel.NewArgs().String(key).Encode())
		in.putArgs = append(in.putArgs, parcel.NewArgs().String(key).Bytes(v).Encode())
	}
	return in
}

// kvOp is request i of a run: its key and whether it is a put.
func kvOp(seed uint64, i int) (key int, put bool) {
	h := splitmix64(seed*0x9e3779b97f4a7c15 + uint64(i))
	return int(h % kvKeys), (h>>32)%100 < kvPutPc
}

// Request verdicts.
const (
	vPending int32 = iota
	vOK
	vFailed // shed or error verdict
	vWrong  // completed with a different value than expected
)

// kvClient issues requests from locality 0 of node 0 and checks every
// verdict against the inputs.
type kvClient struct {
	rt     *core.Runtime
	in     *kvInputs
	shards []agas.GID
	prog   *progress // nil for untracked traffic (warm-up)

	outstanding atomic.Int64
}

func (c *kvClient) dest(k int) agas.GID {
	return c.shards[workloads.KVKeyLocality(c.in.keys[k], len(c.shards))]
}

// remote reports whether key k's shard lives on the other node.
func (c *kvClient) remote(k int) bool {
	return !c.rt.Resident(workloads.KVKeyLocality(c.in.keys[k], len(c.shards)))
}

// issue sends one request; done receives its verdict and verdict time.
func (c *kvClient) issue(k int, put bool, done func(verdict int32, at int64)) {
	c.outstanding.Add(1)
	if c.prog != nil {
		c.prog.attempted.Add(1)
	}
	var fut *lco.Future
	if put {
		fut = c.rt.CallFrom(0, c.dest(k), workloads.ActionKVPut, c.in.putArgs[k])
	} else {
		fut = c.rt.CallFrom(0, c.dest(k), workloads.ActionKVGet, c.in.getArgs[k])
	}
	fut.OnReady(func(v any, err error) {
		at := nowNs()
		verdict := vOK
		switch {
		case err != nil:
			verdict = vFailed
		case put:
			if n, ok := v.(int64); !ok || n != kvValue {
				verdict = vWrong
			}
		default:
			if b, ok := v.([]byte); !ok || !bytes.Equal(b, c.in.values[k]) {
				verdict = vWrong
			}
		}
		if c.prog != nil {
			switch verdict {
			case vOK:
				c.prog.ok.Add(1)
			case vWrong:
				c.prog.wrong.Add(1)
			}
		}
		c.outstanding.Add(-1)
		done(verdict, at)
	})
}

// scans makes up to n full verifying scans (every key read back and
// checked, kvWindow in flight) within kvScanTime and returns their times
// in seconds.
func (c *kvClient) scans(n int) []float64 {
	var out []float64
	end := time.Now().Add(kvScanTime)
	for s := 0; s < n; s++ {
		t := time.Now()
		if c.closedLoop(kvKeys, func(i int) (int, bool) { return i, false }, end) != kvKeys {
			break
		}
		out = append(out, time.Since(t).Seconds())
	}
	return out
}

// closedLoop runs n requests with kvWindow in flight and waits for them,
// up to deadline; it reports how many came back vOK.
func (c *kvClient) closedLoop(n int, op func(i int) (int, bool), deadline time.Time) int64 {
	var ok atomic.Int64
	sem := make(chan struct{}, kvWindow)
	for i := 0; i < n; i++ {
		select {
		case sem <- struct{}{}:
		case <-time.After(time.Until(deadline)):
			return ok.Load()
		}
		k, put := op(i)
		c.issue(k, put, func(v int32, _ int64) {
			if v == vOK {
				ok.Add(1)
			}
			<-sem
		})
	}
	for c.outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return ok.Load()
}

// openLoop is one rung's arrivals: n requests, request i due at
// start + i/rate. One goroutine dispatches them, sleeping only when the
// next arrival is more than 2ms away and otherwise yielding, because a
// sub-millisecond sleep overshoots by most of a millisecond on an idle
// Go scheduler. Latency is charged from the due time. The fields are
// atomic because a generator wedged inside a send is abandoned, not
// joined.
type openLoop struct {
	start    int64
	interval float64
	sent     []atomic.Int64 // dispatch time; 0 until sent
	callNs   []atomic.Int64 // CallFrom's duration, when timed
	doneAt   []atomic.Int64 // verdict time
	verdict  []atomic.Int32
	backlog  atomic.Int64 // outstanding when the last request was sent
	finished chan struct{}
}

func (ol *openLoop) due(i int) int64 { return ol.start + int64(float64(i)*ol.interval) }

// runOpenLoop runs one rung and returns once every request has a verdict
// or kvDrain has passed since the last due time, whichever is first.
func (c *kvClient) runOpenLoop(seed uint64, rate float64, dur time.Duration, timeCalls bool) *openLoop {
	n := int(rate * dur.Seconds())
	ol := &openLoop{
		start: nowNs(), interval: float64(time.Second) / rate,
		sent: make([]atomic.Int64, n), doneAt: make([]atomic.Int64, n),
		verdict: make([]atomic.Int32, n), finished: make(chan struct{}),
	}
	if timeCalls {
		ol.callNs = make([]atomic.Int64, n)
	}
	ol.backlog.Store(-1)
	go func() {
		defer close(ol.finished)
		for i := 0; i < n; i++ {
			due := ol.due(i)
			for {
				now := nowNs()
				if now >= due {
					break
				}
				if due-now > 2e6 {
					time.Sleep(time.Duration(due - now - 1e6))
				} else {
					runtime.Gosched()
				}
			}
			k, put := kvOp(seed, i)
			sent := nowNs()
			ol.sent[i].Store(sent)
			c.issue(k, put, func(v int32, at int64) {
				ol.doneAt[i].Store(at)
				ol.verdict[i].Store(v)
			})
			if timeCalls {
				ol.callNs[i].Store(nowNs() - sent)
			}
		}
		ol.backlog.Store(c.outstanding.Load())
	}()
	deadline := ol.due(n-1) + int64(kvDrain)
	for nowNs() < deadline {
		select {
		case <-ol.finished:
			if c.outstanding.Load() == 0 {
				return ol
			}
		default:
		}
		time.Sleep(time.Millisecond)
	}
	return ol
}

func phaseKV(prog *progress, seed uint64, rate, dur float64, nominal, traced bool) (map[string]float64, map[string][]float64) {
	vals := map[string]float64{}
	samples := map[string][]float64{}
	in := newKVInputs(seed)

	// Set-up: the machine, the service, every key preloaded and the first
	// get verified; kvSetups times, keeping the last machine.
	var (
		m *machine
		c *kvClient
	)
	for i := 0; i < kvSetups; i++ {
		if m != nil {
			m.close()
		}
		t0 := time.Now()
		if m, c = loadKV(in, traced); c == nil {
			// A machine that cannot be loaded fails every arrival of the rung.
			prog.attempted.Add(int64(rate * dur))
			return vals, samples
		}
		samples["setup_s"] = append(samples["setup_s"], time.Since(t0).Seconds())
	}
	vals["setup_s"] = median(samples["setup_s"])

	c.runOpenLoop(seed^0x5eed, min(rate, kvNominal), kvWarm, false)
	// Collect the set-ups' garbage now, so the rung starts from the same
	// heap in every child.
	runtime.GC()
	c.prog = prog
	for _, w := range m.wire {
		if w != nil {
			w.reset()
		}
	}
	cnt0 := counters(m.rts...)
	alloc0 := totalAlloc()

	ol := c.runOpenLoop(seed, rate, time.Duration(dur*float64(time.Second)), traced)
	allocd := totalAlloc() - alloc0
	cnt1 := counters(m.rts...)

	// Latency is reported over the requests that cross the wire. Requests
	// to the client's own node take the local path and finish about a
	// hundred times sooner, so a median over both would sit in the gap
	// between the two modes and jump with the seed's local/remote split.
	var lat, late, local []float64
	var unanswered, unsent, failed, ok int64
	last := ol.start
	for i := range ol.sent {
		due := ol.due(i)
		if sent := ol.sent[i].Load(); sent != 0 {
			late = append(late, float64(sent-due))
		} else {
			unsent++
		}
		switch ol.verdict[i].Load() {
		case vPending:
			unanswered++
		case vOK:
			at := ol.doneAt[i].Load()
			ok++
			if k, _ := kvOp(seed, i); c.remote(k) {
				lat = append(lat, float64(at-due))
			} else {
				local = append(local, float64(at-due))
			}
			last = max(last, at)
		default:
			failed++
		}
	}
	// Arrivals the wedged generator never sent were attempted all the same.
	prog.attempted.Add(unsent)
	n := float64(len(ol.sent))
	lat, late = sorted(lat), sorted(late)
	vals["op_p50_us"] = pct(lat, 0.5) / 1e3
	vals["op_p99_us"] = pct(lat, 0.99) / 1e3
	vals["samples"] = float64(len(lat))
	vals["kv.local_p50_us"] = median(local) / 1e3
	vals["loadgen.late_p50_us"] = pct(late, 0.5) / 1e3
	vals["loadgen.late_p99_us"] = pct(late, 0.99) / 1e3
	pass := unanswered == 0 && failed == 0 && p99Valid(len(lat)) &&
		vals["op_p99_us"]*1e3 <= float64(kvLatencyLimit) &&
		ol.backlog.Load() >= 0 && float64(ol.backlog.Load()) <= rate*kvLatencyLimit.Seconds()
	if pass {
		vals["pass"] = 1
	}
	if unanswered > 0 {
		fmt.Fprintf(os.Stderr, "pxperf: kv rung %v: %d of %d requests unanswered %v after the last due time (%d never sent)\n",
			rate, unanswered, len(ol.sent), kvDrain, unsent)
	}
	wireParity(vals, cnt1)
	if !nominal {
		return vals, samples
	}

	vals["ops_per_s"] = float64(ok) / (float64(last-ol.start) / 1e9)
	vals["alloc_bytes_per_op"] = float64(allocd) / n
	vals["mem_peak_mb"] = peakRSSMiB()

	if traced {
		runtimeLayers(vals, cnt0, cnt1, n, m.rts...)
		m.wireLayer(vals, n)
		var calls []float64
		var sp spanWriter
		for i := range ol.callNs {
			sent, ns, done := ol.sent[i].Load(), ol.callNs[i].Load(), ol.doneAt[i].Load()
			if sent == 0 || ns == 0 || done == 0 {
				continue
			}
			calls = append(calls, float64(ns))
			if i < maxSpanCalls {
				op := int64(i)
				sp.add(span{"kv.request", ol.due(i), done, "", op})
				sp.add(span{"loadgen.late", ol.due(i), sent, "kv.request", op})
				sp.add(span{"core.call", sent, sent + ns, "kv.request", op})
			}
		}
		calls = sorted(calls)
		vals["core.call_ns_p50"] = pct(calls, 0.5)
		vals["core.call_ns_p99"] = pct(calls, 0.99)
		vals["agas.resolve_ns_p50"] = resolveNs(m.rts[0], 0, c.shards)
		codecLayer(vals, "get", c.shards[0], workloads.ActionKVGet, in.getArgs[0])
		codecLayer(vals, "put1k", c.shards[0], workloads.ActionKVPut, in.putArgs[0])
		if err := sp.write(spanFile("kv-open")); err != nil {
			fmt.Fprintln(os.Stderr, "pxperf: write spans:", err)
		}
	}

	if unanswered == 0 {
		// solve_s: the median of kvScans verifying scans on a fresh
		// machine (see kvScans).
		m.close()
		runtime.GC()
		if _, sc := loadKV(in, false); sc != nil {
			sc.prog = prog
			samples["solve_s"] = sc.scans(kvScans)
			vals["solve_s"] = median(samples["solve_s"])
		}
	}
	return vals, samples
}

// loadKV builds the 2-node machine with the KV service, preloads every
// key and verifies one get. A nil client means the machine could not be
// loaded.
func loadKV(in *kvInputs, traced bool) (*machine, *kvClient) {
	m, err := newMachine(kvAdmit, workloads.RegisterKVService, traced, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pxperf: kv machine:", err)
		os.Exit(1)
	}
	var shards []agas.GID
	for _, rt := range m.rts {
		shards = workloads.InstallKVShards(rt)
	}
	c := &kvClient{rt: m.rts[0], in: in, shards: shards}
	deadline := time.Now().Add(20 * time.Second)
	if c.closedLoop(kvKeys, func(i int) (int, bool) { return i, true }, deadline) != kvKeys ||
		c.closedLoop(1, func(int) (int, bool) { return 0, false }, deadline) != 1 {
		fmt.Fprintln(os.Stderr, "pxperf: kv preload failed")
		return m, nil
	}
	return m, c
}
