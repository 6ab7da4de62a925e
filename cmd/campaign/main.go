// Command campaign runs a swept attack-experiment campaign on the
// internal/campaign orchestrator: parallel, resumable, with structured
// result output.
//
// Usage:
//
//	campaign table1                          # built-in preset, defaults
//	campaign -trials 10 -workers 8 fig3      # scaled-up Fig. 3 sweep
//	campaign -spec sweep.json -out results.jsonl
//	campaign -journal t1.journal table1      # checkpointed; re-run to resume
//	campaign -csv results.csv -quiet table2
//	campaign -trace t1.trace.jsonl table1    # record the event trace
//	campaign -debug-addr :6060 table1        # expvar metrics + pprof
//	campaign -faults plans.json recovery     # sweep a structured-fault axis
//
// A campaign is a grid of independent attack jobs (probe round × flush
// × line size × platform × clock × trial). Jobs run on a bounded
// worker pool; every job's RNG derives from (campaign seed, job
// index), so results are identical for any -workers value. With
// -journal, completed jobs are checkpointed after each finish: an
// interrupted run (Ctrl-C drains in-flight jobs and flushes the
// journal) resumes exactly where it stopped.
//
// With -trace, every job records its internal trajectory (internal/obs
// events: encryption boundaries, probe observations, candidate-set
// updates, segment recoveries) and the JSONL trace is written in
// job-index order — byte-identical for any -workers value. Render it
// with cmd/traceview. Jobs resumed from a journal are not re-executed
// and do not appear in the trace.
//
// Failed jobs are logged once each on stderr and make the run exit
// non-zero unless -keep-going is set (the grid still completes either
// way; failures are recorded, not retried).
//
// Presets: fig3 | table1 | table2 | recovery. A -spec JSON file has
// the shape:
//
//	{"name":"sweep","kind":"first-round","seed":2021,"trials":5,
//	 "budget":1000000,"line_words":[1,2,4,8],"flush":[true],
//	 "probe_rounds":[1,2,3,4,5]}
//
// A spec may also carry "fault_plans" (an array of named internal/faults
// plans, each one grid coordinate — the robustness-curve axis), "retry"
// ({"attempts":N,"backoff_ps":M}) and "deadline_ps". -faults loads the
// fault axis from a separate JSON file instead (one plan object or an
// array of named plans) and overrides the spec's.
//
// Progress (with ETA) is reported on stderr every -progress interval;
// the per-cell aggregate table lands on stdout after the run,
// alongside any -out/-csv/-trace files.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -debug-addr serves the default mux's profiles
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"grinch/internal/campaign"
	"grinch/internal/experiments"
	"grinch/internal/faults"
	"grinch/internal/obs"
	obsmetrics "grinch/internal/obs/metrics"
)

func main() {
	var (
		specPath  = flag.String("spec", "", "campaign spec JSON file (alternative to a preset name)")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); results are identical for any value")
		trials    = flag.Int("trials", 3, "trials per grid cell (presets only)")
		budget    = flag.Uint64("budget", 1_000_000, "per-attack encryption budget (presets only)")
		seed      = flag.Uint64("seed", 2021, "campaign seed (presets only)")
		journal   = flag.String("journal", "", "checkpoint journal path; an existing journal resumes the campaign")
		outPath   = flag.String("out", "", "JSON-lines result file (\"-\" for stdout)")
		csvPath   = flag.String("csv", "", "CSV result file")
		tracePath = flag.String("trace", "", "JSON-lines event-trace file (internal/obs format; render with traceview)")
		timing    = flag.Bool("timing", false, "include per-job duration/worker in -out records (breaks byte-determinism)")
		faultFile = flag.String("faults", "", "fault-plan JSON file (one plan object or an array of named plans); adds a fault axis to the grid")
		keepGoing = flag.Bool("keep-going", false, "exit zero even when jobs failed (failures are still logged and recorded)")
		progress  = flag.Duration("progress", 500*time.Millisecond, "stderr progress-ticker interval")
		debugAddr = flag.String("debug-addr", "", "serve expvar campaign metrics and net/http/pprof on this address (e.g. :6060)")
		quiet     = flag.Bool("quiet", false, "suppress the stderr progress ticker")
	)
	flag.Parse()

	spec, err := loadSpec(*specPath, experiments.Options{Trials: *trials, Budget: *budget, Seed: *seed})
	if err != nil {
		fatalf("%v", err)
	}
	if *faultFile != "" {
		plans, err := loadFaultPlans(*faultFile)
		if err != nil {
			fatalf("%v", err)
		}
		spec.FaultPlans = plans
	}

	sinks, closers, err := buildSinks(*outPath, *csvPath, *timing)
	if err != nil {
		fatalf("%v", err)
	}
	agg := &campaign.Aggregator{}
	fails := &failures{}
	sinks = append(sinks, agg, fails)

	var trace *obs.Writer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		trace = obs.NewWriter(f)
		closers = append(closers, func() {
			if err := trace.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "campaign: flushing trace: %v\n", err)
			}
			f.Close()
		})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One set of counts feeds the ticker, the summary, expvar and
	// /metrics.
	metrics := campaign.NewMetrics()
	if *debugAddr != "" {
		serveDebug(*debugAddr, metrics)
	}
	opts := campaign.Options{
		Workers: *workers,
		Sinks:   sinks,
		Journal: *journal,
		Metrics: metrics,
	}
	if trace != nil {
		opts.Trace = trace
	}

	var stopTicker func()
	if !*quiet && *progress > 0 {
		stopTicker = startTicker(spec, metrics, *workers, *progress)
	}
	rep, err := campaign.Run(ctx, spec, experiments.Execute, opts)
	if stopTicker != nil {
		stopTicker()
	}
	for _, c := range closers {
		c()
	}
	fails.report()

	switch {
	case err == context.Canceled:
		fmt.Fprintf(os.Stderr,
			"campaign %s: interrupted after %d/%d jobs (%v); journal flushed — re-run with the same flags to resume\n",
			spec.Name, rep.Skipped+rep.Executed, rep.Total, rep.Elapsed.Round(time.Millisecond))
		os.Exit(130)
	case err != nil:
		fatalf("%v", err)
	}

	printSummary(rep, agg, metrics, trace)
	if len(fails.list) > 0 && !*keepGoing {
		fmt.Fprintf(os.Stderr, "campaign %s: %d job(s) failed (use -keep-going to exit zero anyway)\n",
			spec.Name, len(fails.list))
		os.Exit(1)
	}
}

// failures collects failed results — as a sink it also sees jobs whose
// failure was replayed from the journal, which Report.Failed (executed
// jobs only) misses. Each job index is kept once, so a failure that is
// both replayed and re-delivered can never be double-counted in the
// exit-code path.
type failures struct {
	list []campaign.Result
	seen map[int]bool
}

func (f *failures) Begin(campaign.Spec, int) error { return nil }

func (f *failures) Write(r campaign.Result) error {
	if r.Failed && !f.seen[r.Job] {
		if f.seen == nil {
			f.seen = map[int]bool{}
		}
		f.seen[r.Job] = true
		f.list = append(f.list, r)
	}
	return nil
}

func (f *failures) Close() error { return nil }

// report logs each failed job once on stderr.
func (f *failures) report() {
	for _, r := range f.list {
		fmt.Fprintf(os.Stderr, "campaign: job %d (%s) failed: %s\n", r.Job, r.Point, r.Err)
	}
}

// serveDebug publishes the campaign metrics as the expvar "campaign"
// variable (schema documented in DESIGN.md §14) and serves the default
// mux — /debug/vars (expvar), /metrics (Prometheus text exposition of
// the same campaign_* registry) and /debug/pprof (net/http/pprof) — on
// addr. Debugging telemetry only: it never feeds back into results or
// traces.
func serveDebug(addr string, m *campaign.Metrics) {
	expvar.Publish("campaign", m)
	http.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obsmetrics.ContentType)
		if err := obsmetrics.WriteProm(w, m.Registry().Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "campaign: writing /metrics: %v\n", err)
		}
	})
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "campaign: debug server: %v\n", err)
		}
	}()
}

// loadFaultPlans reads a -faults file: one plan object or an array of
// named plans, each becoming one value of the campaign's fault axis.
// A lone unnamed plan gets the name "faulted" so it can serve as an
// axis value.
func loadFaultPlans(path string) ([]faults.Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	plans, err := faults.ParsePlans(data)
	if err != nil {
		return nil, err
	}
	if len(plans) == 1 && plans[0].Name == "" {
		plans[0].Name = "faulted"
	}
	return plans, nil
}

// loadSpec builds the campaign spec from -spec or a preset argument.
func loadSpec(path string, opt experiments.Options) (campaign.Spec, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return campaign.Spec{}, err
		}
		return campaign.ParseSpec(data)
	}
	if flag.NArg() != 1 {
		return campaign.Spec{}, fmt.Errorf("campaign: need a preset (fig3, table1, table2, recovery) or -spec file")
	}
	return experiments.SpecByName(flag.Arg(0), opt)
}

// buildSinks assembles the file sinks and their close functions.
func buildSinks(outPath, csvPath string, timing bool) ([]campaign.Sink, []func(), error) {
	var sinks []campaign.Sink
	var closers []func()
	open := func(path string) (*os.File, error) {
		if path == "-" {
			return os.Stdout, nil
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		closers = append(closers, func() { f.Close() })
		return f, nil
	}
	if outPath != "" {
		f, err := open(outPath)
		if err != nil {
			return nil, nil, err
		}
		sinks = append(sinks, &campaign.JSONLSink{W: f, Timing: timing})
	}
	if csvPath != "" {
		f, err := open(csvPath)
		if err != nil {
			return nil, nil, err
		}
		sinks = append(sinks, &campaign.CSVSink{W: f})
	}
	return sinks, closers, nil
}

// startTicker reports progress + ETA on stderr every interval until
// stopped. Progress counts executed and journal-resumed jobs; the ETA
// derives from the metrics' per-job mean duration and the worker
// count, so it stabilizes as soon as a few jobs finish.
func startTicker(spec campaign.Spec, m *campaign.Metrics, workers int, interval time.Duration) func() {
	total := spec.NumJobs()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	stop := make(chan struct{})
	tick := time.NewTicker(interval)
	go func() {
		defer tick.Stop()
		for {
			select {
			case <-stop:
				fmt.Fprintln(os.Stderr)
				return
			case <-tick.C:
				snap := m.Snapshot()
				d := int(snap.JobsDone + snap.JobsSkipped)
				line := fmt.Sprintf("\rcampaign %s: %d/%d jobs", spec.Name, d, total)
				if snap.JobsDone > 0 && snap.JobMSMean > 0 {
					remaining := total - d
					eta := time.Duration(float64(remaining)*snap.JobMSMean/float64(workers)) * time.Millisecond
					line += fmt.Sprintf(" (%.1fms/job, queue %d, in-flight %d, ETA %v)",
						snap.JobMSMean, snap.QueueDepth, snap.InFlight, eta.Round(time.Second))
				}
				fmt.Fprint(os.Stderr, line+"   ")
			}
		}
	}()
	return func() { close(stop) }
}

// printSummary renders the per-cell aggregate table and run totals.
func printSummary(rep campaign.Report, agg *campaign.Aggregator, m *campaign.Metrics, trace *obs.Writer) {
	fmt.Printf("campaign %s: %d jobs (%d resumed from journal, %d failed) in %v\n",
		rep.Spec.Name, rep.Total, rep.Skipped, rep.Failed+rep.FailedReplayed, rep.Elapsed.Round(time.Millisecond))
	snap := m.Snapshot()
	fmt.Printf("  %d victim encryptions this run; per-job %.1fms mean, %.1fms max\n",
		snap.Encryptions, snap.JobMSMean, snap.JobMSMax)
	if trace != nil {
		fmt.Printf("  %d trace events recorded\n", trace.Count())
	}
	fmt.Println()
	fmt.Printf("%-44s %8s %12s %12s %12s\n", "cell", "trials", "median", "min", "max")
	for _, c := range agg.Cells() {
		s := c.Summary()
		median := fmt.Sprintf("%.0f", s.Median)
		if c.DroppedOut {
			median = ">" + fmt.Sprintf("%.0f", s.Max)
		}
		if len(c.Rounds) > 0 {
			// Platform-race cells measure a round, not an effort.
			median = fmt.Sprintf("round %d", c.Rounds[len(c.Rounds)/2])
		}
		fmt.Printf("%-44s %8d %12s %12.0f %12.0f", c.Point, len(c.Trials), median, s.Min, s.Max)
		if c.Partial > 0 {
			fmt.Printf("  %d/%d partial, %d faults", c.Partial, len(c.Trials), c.Faults)
		}
		fmt.Println()
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
	os.Exit(1)
}
