package main

import (
	"repro/internal/agas"
	"repro/internal/core"
	"repro/internal/parcel"
)

// microBatch is how many calls one timing sample covers, so the clock
// read costs little next to a call of a few tens of nanoseconds.
const microBatch = 64

// microSamples is the number of timing samples per measured call.
const microSamples = 2000

// timeBatches times fn in microSamples batches of microBatch calls and
// returns the median per-call time in ns.
func timeBatches(fn func()) float64 {
	xs := make([]float64, microSamples)
	for i := range xs {
		t0 := nowNs()
		for j := 0; j < microBatch; j++ {
			fn()
		}
		xs[i] = float64(nowNs()-t0) / microBatch
	}
	return median(xs)
}

// resolveNs times AGAS().ResolveCached from locality src on the
// workload's own destinations, against the live runtime.
func resolveNs(rt *core.Runtime, src int, dests []agas.GID) float64 {
	svc := rt.AGAS()
	i := 0
	return timeBatches(func() {
		if _, err := svc.ResolveCached(src, dests[i%len(dests)]); err != nil {
			panic(err)
		}
		i++
	})
}

// codecLayer times the public parcel codec on one parcel shape the
// workload sends (a request carrying a future continuation, as CallFrom
// builds it) and records its encode and decode time and its size.
func codecLayer(vals map[string]float64, shape string, dest agas.GID, action string, args []byte) {
	reply := agas.WellKnownGID(0, agas.KindLCO, 0)
	p := parcel.New(dest, action, args, parcel.Continuation{Target: reply, Action: core.ActionLCOSet})
	buf := p.Encode(nil)
	vals["parcel.bytes."+shape] = float64(len(buf))
	vals["parcel.encode_ns."+shape] = timeBatches(func() { buf = p.Encode(buf[:0]) })
	var q parcel.Parcel
	vals["parcel.decode_ns."+shape] = timeBatches(func() {
		if _, err := parcel.DecodeInto(&q, buf); err != nil {
			panic(err)
		}
	})
}
