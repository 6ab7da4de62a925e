// Command perfbench is the end-to-end benchmark of the GRINCH
// reproduction. It sets one workload up, runs it in a closed loop for
// the requested time, checks the program's outputs, and prints the
// workload's metrics: the end-to-end ones from an untraced run, or,
// with -trace 1, the per-layer ones from a run whose calls into each
// layer are timed by wrappers in this package. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workdir  string
}

// outcome is everything one run reports.
type outcome struct {
	problems  []string
	attempted int
	failed    int
	endToEnd  []metric
	failRatio metric
	layers    []metric
	tracer    *tracer
	traced    window
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: attack-grid, platform or fleet")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs untraced then traced and prints the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench/work", "scratch directory for coordinator journals")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out.report(cfg)
	b, err := out.resultLine(cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if len(out.problems) > 0 {
		os.Exit(1)
	}
}

// run sets the workload up setupReps times, measures it, and checks
// its outputs. With cfg.trace, an untraced window of half the time is
// followed by a traced window of tracedPasses passes; their job rates
// give trace.overhead_ratio.
func run(cfg config) (*outcome, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	cal := []calibration{calibrate()}
	var in instance
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		in, err = newInstance(cfg.workload, cfg.seed, cfg.workdir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	out := &outcome{}
	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	u, err := measure(in, nil, cfg.seed, d, 0)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		out.tracer = newTracer()
		if out.traced, err = measure(in, out.tracer, cfg.seed, 0, tracedPasses[cfg.workload]); err != nil {
			return nil, err
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	cal = append(cal, calibrate())

	out.attempted = u.jobs + out.traced.jobs
	out.failed = u.failed + out.traced.failed
	out.endToEnd, out.failRatio = endToEnd(setups, u, ru.Maxrss)
	for _, pr := range u.passes {
		for _, p := range in.check(pr) {
			out.problems = append(out.problems, fmt.Sprintf("pass seed %d: %s", pr.seed, p))
		}
	}
	if len(u.durs) < 100 {
		out.problems = append(out.problems, fmt.Sprintf("%d jobs leave fewer than 10 samples above p90", len(u.durs)))
	}
	if cfg.trace {
		t, tw := out.tracer, out.traced
		out.layers = perLayer(t, tw, u, cal, cfg.workload == "fleet")
		for p := 0; p < len(tw.passes) && p < len(u.passes); p++ {
			if tw.passes[p].digest != u.passes[p].digest {
				out.problems = append(out.problems, fmt.Sprintf(
					"pass seed %d: traced and untraced passes produce different canonical JSONL", u.passes[p].seed))
			}
		}
		out.problems = append(out.problems, t.violations...)
		if cfg.workload == "attack-grid" && t.counts.scalars > 0 {
			out.problems = append(out.problems, fmt.Sprintf(
				"oracle.scalar_collects_per_job = %.3f: the attack fell back to the scalar path", float64(t.counts.scalars)/float64(tw.jobs)))
		}
	}
	return out, nil
}

// resultLine is the JSON object a run prints as its last line: the
// end-to-end metrics, or with trace the per-layer ones.
func (o *outcome) resultLine(trace bool) ([]byte, error) {
	ms := o.endToEnd
	if trace {
		ms = o.layers
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{len(o.problems) == 0, o.attempted, o.failed, map[string]map[string]any{}}
	for _, m := range ms {
		line.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return json.Marshal(line)
}

// report prints the human-readable tables to standard error.
func (o *outcome) report(cfg config) {
	w := os.Stderr
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%s trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	writeMetrics(w, "end to end (untraced window)", append(o.endToEnd, o.failRatio))
	if cfg.trace {
		writeMetrics(w, "per layer (traced window)", o.layers)
		writeSelfTimes(w, o.tracer, o.traced.wall)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
}

// window is what one stretch of passes measured.
type window struct {
	passes          []passResult
	jobs, failed    int
	durs            []float64
	wall            time.Duration
	gcCycles        uint32
	heapPeak        uint64
	journalBytes    int64
	mergeMS, idleMS []float64
}

// measure runs passes 0, 1, … of the workload: exactly n of them when
// n > 0, else until d has elapsed, at least one.
func measure(in instance, t *tracer, seed uint64, d time.Duration, n int) (window, error) {
	var w window
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stopSampler := sampleHeap(&w.heapPeak)
	start := time.Now()
	for p := 0; n > 0 && p < n || n == 0 && (p == 0 || time.Since(start) < d); p++ {
		passStart, cpu0 := time.Now(), cpuTime()
		var a0, a1 runtime.MemStats
		runtime.ReadMemStats(&a0)
		pr, err := in.pass(passSeed(seed, p), t)
		if err != nil {
			stopSampler()
			return w, err
		}
		pr.index, pr.wall, pr.cpu = p, time.Since(passStart), cpuTime()-cpu0
		runtime.ReadMemStats(&a1)
		pr.allocBytes = a1.TotalAlloc - a0.TotalAlloc
		w.jobs += pr.jobs
		w.failed += pr.failed
		w.durs = append(w.durs, pr.durs...)
		pr.durs = nil
		w.journalBytes += pr.journalBytes
		w.mergeMS = append(w.mergeMS, pr.mergeMS)
		w.idleMS = append(w.idleMS, pr.idleMS)
		w.passes = append(w.passes, pr)
	}
	w.wall = time.Since(start)
	stopSampler()
	runtime.ReadMemStats(&m1)
	w.gcCycles = m1.NumGC - m0.NumGC
	return w, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHeap records the peak live-heap size into *peak every 10 ms
// until the returned stop function is called.
func sampleHeap(peak *uint64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > *peak {
				*peak = v
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// calibration is one run of the host calibration kernel.
type calibration struct {
	nsPerBlock float64 // one copy alone: ns per block per full encryption
	ceiling    float64 // throughput of two concurrent copies over one
}

// calIters sizes the kernel at roughly 0.1 s per copy on a 2020s core.
const calIters = 20_000

// calibrate runs the gift.Batch64 kernel once alone and then as two
// concurrent copies. It tracks host speed and the parallel ceiling a
// two-worker pool can reach on this host, not the workload.
func calibrate() calibration {
	alone := kernelWall(1)
	pair := kernelWall(2)
	return calibration{
		nsPerBlock: float64(alone) / (calIters * 64),
		ceiling:    2 * float64(alone) / float64(pair),
	}
}

var kernelSink atomic.Uint64

func kernelWall(copies int) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < copies; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rks := gift.ExpandKey64(bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210})
			var b gift.Batch64
			for i := range b {
				b[i] = uint64(i) * 0x9e3779b97f4a7c15
			}
			for it := 0; it < calIters; it++ {
				for _, rk := range rks {
					b.Round(rk)
				}
			}
			kernelSink.Add(b[0])
		}()
	}
	wg.Wait()
	return time.Since(start)
}
