// Command pxperf is the repository benchmark. It drives the real runtime
// from outside, through the repro packages' public functions, on two
// workloads chosen to stress different layers (see README.md):
//
//	rpc-pingpong  one client, one call in flight, 2-node TCP machine
//	kv-open       open-loop sharded KV traffic on a rate ladder
//
// Usage, from the root of a checkout:
//
//	bash pxperf/run.sh --workload kv-open --seed 3 --seconds 20 --trace 0
//
// Every measured phase runs in a child process that the parent kills at a
// fixed bound, so a wedged machine ends the phase instead of the
// benchmark; the parent prints one JSON result as its last stdout line.
// With --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer breakdown from a separate traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

var (
	flagWorkload = flag.String("workload", "", "rpc-pingpong or kv-open")
	flagSeed     = flag.Uint64("seed", 1, "input seed")
	flagSeconds  = flag.Float64("seconds", 20, "measured time of one run")
	flagTrace    = flag.Int("trace", 0, "1 reports the per-layer breakdown from a traced run")
	flagOut      = flag.String("out", ".bench_build/pxperf", "directory for span files")

	// Child-process flags: the parent re-executes itself with -phase to run
	// one measured phase under a kill bound.
	flagPhase   = flag.String("phase", "", "internal: run one phase as a child")
	flagDur     = flag.Float64("dur", 1, "internal: phase duration in seconds")
	flagRate    = flag.Float64("rate", 0, "internal: kv-open arrival rate")
	flagNominal = flag.Bool("nominal", false, "internal: kv-open rung that reports the end-to-end metrics")
	flagTraced  = flag.Bool("traced", false, "internal: run the phase with tracing on")
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of every metric the benchmark reports; BENCHMARK.json lists the
// same names and units.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"op_p50_us":          "us",
	"op_p99_us":          "us",
	"ops_per_s":          "ops/s",
	"solve_s":            "s",
	"ops_ok_frac":        "ratio",
	"alloc_bytes_per_op": "B",
	"mem_peak_mb":        "MiB",
}

func main() {
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *flagPhase != "" {
		runPhase()
		return
	}
	var (
		vals map[string]float64
		acct account
		err  error
	)
	traced := *flagTrace == 1
	switch *flagWorkload {
	case "rpc-pingpong":
		vals, acct, err = benchRPC(*flagSeed, *flagSeconds, traced)
	case "kv-open":
		vals, acct, err = benchKV(*flagSeed, *flagSeconds, traced)
	default:
		err = fmt.Errorf("unknown workload %q", *flagWorkload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pxperf:", err)
		os.Exit(1)
	}
	vals["ops_ok_frac"] = ratio(float64(acct.attempted-acct.failed), float64(acct.attempted))
	units := endToEndUnits
	if traced {
		units = perLayerUnits
	}
	res := result{
		Correct:   acct.wrong == 0 && acct.attempted > 0,
		Attempted: acct.attempted,
		Failed:    acct.failed,
		Metrics:   map[string]metric{},
	}
	for name, unit := range units {
		res.Metrics[name] = metric{Value: vals[name], Unit: unit}
	}
	printProvenance(vals)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pxperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// account counts a run's operations: attempted, failed (lost, timed out,
// shed, unanswered at the bound, or wrong) and, of the failed, wrong.
type account struct {
	attempted, failed, wrong int64
}

func (a *account) add(r report) {
	a.attempted += r.Attempted
	a.failed += r.Attempted - r.OK
	a.wrong += r.Wrong
}

// printProvenance records what produced the result: seed, processor
// counts, toolchain and the wire path the machine actually used. A
// same-host connection count above zero means the nodes talked over the
// transport's Unix-socket fabric, not a TCP link.
func printProvenance(vals map[string]float64) {
	prov := map[string]any{
		"workload":   *flagWorkload,
		"seed":       *flagSeed,
		"seconds":    *flagSeconds,
		"trace":      *flagTrace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
	}
	if n, ok := vals["gomaxprocs"]; ok {
		prov["gomaxprocs"] = n
		prov["gomaxprocs_pipelined"] = vals["gomaxprocs.pipelined"]
	}
	prov["wire_path"] = "none (one process)"
	if n, ok := vals["samples"]; ok {
		prov["latency_samples"] = n
	}
	if n, ok := vals["wire.samehost_conns"]; ok {
		path := "tcp"
		if n > 0 {
			path = "unix (same-host fabric)"
		}
		prov["wire_path"] = path
		prov["samehost_conns"] = n
	}
	line, _ := json.Marshal(prov)
	fmt.Println("provenance " + string(line))
}

// spanFile names the file a traced run writes its spans to.
func spanFile(workload string) string {
	return filepath.Join(*flagOut, "spans-"+workload+".jsonl")
}

// phaseBound is how long a child may run before the parent kills it:
// its measured time plus room for set-up, draining and teardown.
func phaseBound(dur float64, extra time.Duration) time.Duration {
	return time.Duration(dur*float64(time.Second)) + extra
}
