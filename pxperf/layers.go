package main

import "fmt"

// perLayerUnits names every per-layer metric of a traced run, with its
// unit; BENCHMARK.json lists the same. Every workload reports every
// name, and a metric of a layer the workload does not cross reads 0
// (README.md lists which apply where).
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"loadgen.late_p50_us": "us",
		"loadgen.late_p99_us": "us",

		"core.call_ns_p50":          "ns",
		"core.call_ns_p99":          "ns",
		"core.action_ns_p50":        "ns",
		"core.parcels_per_op":       "count",
		"core.local_parcels_per_op": "count",

		"agas.resolve_ns_p50":     "ns",
		"agas.cache_hit_frac":     "ratio",
		"agas.resolutions_per_op": "count",

		"parcel.pool_hit_frac":      "ratio",
		"parcel.wire_pool_hit_frac": "ratio",

		"transport.send_ns_p50":      "ns",
		"transport.send_ns_p99":      "ns",
		"transport.handler_ns_p50":   "ns",
		"transport.handler_ns_p99":   "ns",
		"transport.wire_us_p50":      "us",
		"transport.frames_per_op":    "count",
		"transport.bytes_per_op":     "B",
		"transport.frames_per_batch": "count",
		"transport.backpressured":    "count",

		"locality.queue_wait_us_p50":  "us",
		"locality.queue_wait_us_p99":  "us",
		"locality.tasks_per_op":       "count",
		"locality.steal_frac":         "ratio",
		"locality.idle_frac":          "ratio",
		"locality.suspensions_per_op": "count",
		"locality.queue_peak":         "count",

		"lco.reply_us_p50": "us",
		"lco.reply_us_p99": "us",

		"trace.overhead_frac":  "ratio",
		"trace.layer_sum_frac": "ratio",

		"kv.max_rate_rps": "req/s",
		"kv.local_p50_us": "us",
	}
	for _, shape := range []string{"echo", "get", "put1k"} {
		u["parcel.encode_ns."+shape] = "ns"
		u["parcel.decode_ns."+shape] = "ns"
		u["parcel.bytes."+shape] = "B"
	}
	for _, rate := range kvLadder {
		tag := fmt.Sprintf(".r%d", int(rate))
		u["kv.p50_us"+tag] = "us"
		u["kv.p99_us"+tag] = "us"
		u["kv.failed_frac"+tag] = "ratio"
	}
	return u
}()
