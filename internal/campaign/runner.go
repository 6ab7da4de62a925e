package campaign

import (
	"context"
	"fmt"
	"time"

	"grinch/internal/journal"
	"grinch/internal/obs"
)

// Options configure one campaign run.
type Options struct {
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Sinks receive every result in job-index order. Run calls Begin
	// and Close on them.
	Sinks []Sink
	// Journal is the checkpoint file path; empty disables journaling.
	// If the file already exists for the same spec, its completed jobs
	// are replayed into the sinks and skipped.
	Journal string
	// Metrics, if set, receives the run's counts (see Metrics); nil
	// counts nothing.
	Metrics *Metrics
	// Progress, if set, is called after every completed or replayed
	// job with (jobs accounted for, grid size). Calls are serialized.
	Progress func(done, total int)
	// Trace, if set, enables event tracing: every job gets a private
	// obs.Buffer (so parallel workers never interleave) and the buffered
	// events reach this sink in job-index order, one WriteEvents call
	// per traced job — byte-deterministic for any worker count. Jobs
	// replayed from the journal were not re-executed and contribute no
	// events.
	Trace obs.Sink
}

// Report summarizes a finished (or interrupted) run.
type Report struct {
	Spec Spec
	// Total is the grid size; Skipped were replayed from the journal;
	// Executed ran this time (Failed of them unsuccessfully).
	Total, Skipped, Executed, Failed int
	// FailedReplayed counts journal-replayed failures — jobs that failed
	// in an earlier run and were not re-executed. A job is counted in
	// Failed or in FailedReplayed, never both, so the run's true failure
	// count is always Failed + FailedReplayed.
	FailedReplayed int
	// Delivered is how many results reached the sinks — the full grid
	// on a completed run, an index-prefix on an interrupted one.
	Delivered int
	// Encryptions consumed by the jobs executed this run.
	Encryptions uint64
	Elapsed     time.Duration
}

// Run expands spec into jobs, executes them on a bounded worker pool,
// and streams the results to the sinks in job-index order.
//
// Determinism: each job's seed is derived from (spec.Seed, job index),
// so the result of every job — and, because delivery is reordered to
// index order, the byte output of every deterministic sink — is
// identical for any worker count and any scheduling.
//
// Cancellation: when ctx is cancelled, dispatch stops, in-flight jobs
// drain, the journal is flushed, and Run returns the partial report
// with ctx's error. A later Run with the same spec and journal resumes
// where this one stopped. A sink, trace or journal error stops
// dispatch the same way and is returned.
//
// Panics inside the executor are recovered and recorded as failed
// results; they do not kill the run.
func Run(ctx context.Context, spec Spec, exec Executor, opts Options) (Report, error) {
	start := time.Now() //grinchvet:ignore wallclock Report.Elapsed is operator telemetry, stripped from deterministic sink output
	if err := spec.Validate(); err != nil {
		return Report{}, err
	}
	spec = spec.normalized()
	jobs := spec.Jobs()

	// Resume: load completed jobs from the journal, if any.
	var jnl *journal.Journal[Result]
	prior := map[int]Result{}
	if opts.Journal != "" {
		var err error
		jnl, prior, err = OpenJournal(opts.Journal, spec)
		if err != nil {
			return Report{}, err
		}
		defer jnl.Close()
	}
	pending := make([]Job, 0, len(jobs))
	failedReplayed := 0
	for _, j := range jobs {
		r, done := prior[j.Index]
		if !done {
			pending = append(pending, j)
		} else if r.Failed {
			failedReplayed++
		}
	}
	opts.Metrics.begin(len(jobs), len(prior), failedReplayed)

	sinks := multiSink(opts.Sinks)
	if err := sinks.Begin(spec, len(jobs)); err != nil {
		return Report{}, err
	}

	// Deliver to sinks in job-index order via a reorder buffer
	// pre-seeded with the journal-replayed results (deliver consumes
	// the stash, so count the resumed jobs first).
	skipped := len(prior)
	stash := prior
	evStash := map[int][]obs.Event{}
	next := 0
	deliver := func() error {
		for {
			r, ok := stash[next]
			if !ok {
				return nil
			}
			delete(stash, next)
			if err := sinks.Write(r); err != nil {
				return fmt.Errorf("campaign: sink write: %w", err)
			}
			if evs, ok := evStash[next]; ok {
				delete(evStash, next)
				if err := opts.Trace.WriteEvents(evs); err != nil {
					return fmt.Errorf("campaign: trace write: %w", err)
				}
			}
			next++
		}
	}
	progress := func(done int) {
		if opts.Progress != nil {
			opts.Progress(done, len(jobs))
		}
	}
	progress(skipped)

	rep := Report{Spec: spec, Total: len(jobs), Skipped: skipped, FailedReplayed: failedReplayed}
	// Journal in completion order, then deliver whatever the result
	// unblocked. An error here stops dispatch: nothing later could be
	// recorded or delivered.
	emit := func(res Result, events []obs.Event) error {
		opts.Metrics.finished(res)
		rep.Executed++
		if res.Failed {
			rep.Failed++
		}
		rep.Encryptions += res.Encryptions
		if err := jnl.Append(res); err != nil {
			return err
		}
		stash[res.Job] = res
		if len(events) > 0 {
			evStash[res.Job] = events
		}
		if err := deliver(); err != nil {
			return err
		}
		progress(rep.Skipped + rep.Executed)
		return nil
	}
	err := deliver()
	if err == nil {
		err = ExecuteJobs(ctx, pending, opts.Metrics.counted(exec), opts.Workers, opts.Trace != nil, emit)
	}
	opts.Metrics.end()

	rep.Delivered = next
	rep.Elapsed = time.Since(start) //grinchvet:ignore wallclock operator telemetry, not part of sink bytes
	closeErr := sinks.Close()

	switch {
	case ctx.Err() != nil:
		return rep, ctx.Err()
	case err != nil:
		return rep, err
	case closeErr != nil:
		return rep, closeErr
	}
	return rep, nil
}

// journalHeader is the first line of a campaign journal. It pins the
// journal to one campaign: a resume against a journal whose fingerprint
// does not match the spec is an error, because job indices would then
// refer to different grid points.
type journalHeader struct {
	Campaign    string `json:"campaign"`
	Fingerprint string `json:"fingerprint"`
	Jobs        int    `json:"jobs"`
}

// OpenJournal opens (or creates) the checkpoint journal at path for
// spec and returns the results it already holds, keyed by job index.
// Each completed job is one JSON line holding the Result the sinks
// receive, timing included.
func OpenJournal(path string, spec Spec) (*journal.Journal[Result], map[int]Result, error) {
	want := journalHeader{Campaign: spec.Name, Fingerprint: spec.Fingerprint(), Jobs: spec.NumJobs()}
	j, recs, err := journal.Open[Result](path, want, func(got journalHeader) error {
		if got.Fingerprint != want.Fingerprint {
			return fmt.Errorf("campaign: journal %s belongs to campaign %q (fingerprint %s, want %s); refusing to resume a different grid",
				path, got.Campaign, got.Fingerprint, want.Fingerprint)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	prior := make(map[int]Result, len(recs))
	for _, r := range recs {
		prior[r.Job] = r
	}
	return j, prior, nil
}

// runJob executes one job, converting errors and panics into failed
// results and stamping the execution metadata.
func runJob(job Job, exec Executor, worker int, tracer obs.Tracer) (res Result) {
	start := time.Now() //grinchvet:ignore wallclock Result.DurationNS is excluded from canonical sink output (see Result.Canonical)
	res = Result{Job: job.Index, Point: job.Point, Seed: job.Seed, Worker: worker}
	defer func() {
		if r := recover(); r != nil {
			res.Failed = true
			res.Err = fmt.Sprintf("panic: %v", r)
		}
		res.DurationNS = time.Since(start).Nanoseconds() //grinchvet:ignore wallclock timing metadata, excluded from canonical sink output
	}()
	m, err := exec(job, tracer)
	if err != nil {
		res.Failed = true
		res.Err = err.Error()
		return res
	}
	res.Measurement = m
	return res
}
