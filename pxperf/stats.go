package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
)

// epoch anchors nowNs: every node of an in-process machine shares this one
// clock, so timestamps taken on different nodes subtract meaningfully.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// pct returns the q-quantile of sorted by nearest rank.
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return pct(sorted(xs), 0.5) }

// scale multiplies every value of xs by f.
func scale(xs []float64, f float64) {
	for i := range xs {
		xs[i] *= f
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// p99Valid reports whether a sample of n values has at least ten values
// beyond its 99th percentile, the least that makes a p99 worth reporting.
func p99Valid(n int) bool { return n >= 1000 }

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// counters sums the px.* registries of every runtime of a machine.
func counters(rts ...*core.Runtime) map[string]float64 {
	out := map[string]float64{}
	for _, rt := range rts {
		for k, v := range rt.Metrics().Snapshot() {
			out[k] += v
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one traced interval; spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent string `json:"parent"`
	Op     int64  `json:"op"`
}

// spanWriter keeps spans in memory until the run ends.
type spanWriter struct{ spans []span }

func (w *spanWriter) add(s span) { w.spans = append(w.spans, s) }

// write stores the spans as JSON lines.
func (w *spanWriter) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range w.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// splitmix64 derives every generated input from the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
