package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// report is what one phase child prints as its last stdout line. OK
// counts verified results; Attempted - OK failed; Wrong counts results
// that came back different from the expected output.
type report struct {
	Attempted int64              `json:"attempted"`
	OK        int64              `json:"ok"`
	Wrong     int64              `json:"wrong"`
	Values    map[string]float64 `json:"values"`
	// Samples holds, for some values, the figures the value is the median
	// of (one per window, batch, scan or set-up); runChildren pools them
	// across children.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Finished is false when the parent killed the child at its bound;
	// the counts then come from the child's last progress line.
	Finished bool `json:"-"`
}

// progress is a child's running count, printed every 100ms so the parent
// knows how many operations a killed child had attempted and verified.
type progress struct {
	attempted, ok, wrong atomic.Int64
}

var stdoutMu sync.Mutex

func printLine(tag string, v any) {
	b, _ := json.Marshal(v)
	stdoutMu.Lock()
	fmt.Printf("%s %s\n", tag, b)
	stdoutMu.Unlock()
}

func (p *progress) snapshot() report {
	return report{Attempted: p.attempted.Load(), OK: p.ok.Load(), Wrong: p.wrong.Load()}
}

// start prints progress lines until the returned stop is called.
func (p *progress) start() (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				printLine("progress", p.snapshot())
			}
		}
	}()
	return func() { close(done); <-exited }
}

// runPhase is the child side: run the phase named by -phase, print its
// report and exit without tearing the machine down (a wedged machine
// would block a graceful shutdown; the process exit releases it).
func runPhase() {
	var prog progress
	stop := prog.start()
	var (
		vals    map[string]float64
		samples map[string][]float64
	)
	switch *flagPhase {
	case "rpc":
		vals, samples = phaseRPC(&prog, *flagSeed, *flagDur, *flagTraced)
	case "kv":
		vals, samples = phaseKV(&prog, *flagSeed, *flagRate, *flagDur, *flagNominal, *flagTraced)
	default:
		fmt.Fprintf(os.Stderr, "pxperf: unknown phase %q\n", *flagPhase)
		os.Exit(2)
	}
	stop()
	r := prog.snapshot()
	r.Values, r.Samples = vals, samples
	printLine("result", r)
	os.Exit(0)
}

// runChild runs one phase in a child process and kills it at bound. A
// killed child's operations count from its last progress line: whatever
// it had attempted but not verified is failed. An error means the child
// could not run at all.
func runChild(bound time.Duration, args ...string) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, fmt.Errorf("locate benchmark binary: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), bound)
	defer cancel()
	args = append([]string{"-seed", strconv.FormatUint(*flagSeed, 10), "-out", *flagOut}, args...)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.StdoutPipe()
	if err != nil {
		return report{}, fmt.Errorf("child stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return report{}, fmt.Errorf("start child: %w", err)
	}
	var last report
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		tag, body, _ := strings.Cut(sc.Text(), " ")
		switch tag {
		case "progress", "result":
			var r report
			if err := json.Unmarshal([]byte(body), &r); err != nil {
				return report{}, fmt.Errorf("child %v: bad %s line: %w", args, tag, err)
			}
			r.Finished = tag == "result"
			last = r
		default:
			fmt.Println(sc.Text())
		}
	}
	werr := cmd.Wait()
	if last.Finished {
		return last, nil
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "pxperf: phase %v killed at its %v bound: %d of %d operations unanswered\n",
			args, bound, last.Attempted-last.OK, last.Attempted)
		return last, nil
	}
	if werr == nil {
		werr = errors.New("exited without a result")
	}
	return report{}, fmt.Errorf("child %v: %w", args, werr)
}

// runChildren runs the same phase in k child processes, one after
// another, and merges their reports: counts add up, a value with samples
// is the median of every child's samples pooled, and any other value is
// the median over the children that finished. Splitting a run this way
// keeps one process's placement (which processor it mostly ran on, and
// what shared that processor meanwhile) from setting the whole run's
// figures.
func runChildren(k int, bound time.Duration, args ...string) (report, error) {
	var merged report
	per := map[string][]float64{}
	pooled := map[string][]float64{}
	for i := 0; i < k; i++ {
		r, err := runChild(bound, args...)
		if err != nil {
			return report{}, err
		}
		merged.Attempted += r.Attempted
		merged.OK += r.OK
		merged.Wrong += r.Wrong
		for name, v := range r.Values {
			per[name] = append(per[name], v)
		}
		for name, vs := range r.Samples {
			pooled[name] = append(pooled[name], vs...)
		}
	}
	merged.Values = map[string]float64{}
	for name, vs := range per {
		merged.Values[name] = median(vs)
	}
	for name, vs := range pooled {
		merged.Values[name] = median(vs)
	}
	return merged, nil
}
