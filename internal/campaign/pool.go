package campaign

import (
	"context"
	"runtime"
	"sync"

	"grinch/internal/obs"
)

// tracedResult pairs a completed job with the events its private
// tracer buffered (nil when tracing is off).
type tracedResult struct {
	Result
	events []obs.Event
}

// ExecuteJobs runs an explicit job slice on a bounded worker pool and
// hands every completed result to emit. It is the one execution
// primitive under both Run (which journals, reorders and delivers in
// emit) and the distributed shard worker (internal/campaignd/worker,
// which batches results to the coordinator, which sorts by index at
// merge). workers <= 0 means GOMAXPROCS.
//
// Semantics:
//
//   - emit is called from a single goroutine, in completion order. The
//     determinism contract is unaffected: each Result is a pure
//     function of its Job (seeds are index-derived), only the emission
//     order varies with scheduling.
//   - With trace set, every job runs with a private obs.Buffer and its
//     events reach emit beside the result; otherwise the executor gets
//     a nil tracer and emit gets nil events.
//   - A panicking or erroring executor yields a Failed result.
//   - Cancelling ctx stops dispatch; in-flight jobs drain and are still
//     emitted, then ExecuteJobs returns ctx.Err(). An emit error stops
//     dispatch the same way (the drained results are not emitted) and
//     is returned instead.
func ExecuteJobs(ctx context.Context, jobs []Job, exec Executor, workers int, trace bool,
	emit func(Result, []obs.Event) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dispatchCtx, stopDispatch := context.WithCancel(ctx)
	defer stopDispatch()

	jobCh := make(chan Job)
	resCh := make(chan tracedResult)
	go func() {
		defer close(jobCh)
		for _, j := range jobs {
			select {
			case jobCh <- j:
			case <-dispatchCtx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for job := range jobCh {
				if !trace {
					resCh <- tracedResult{Result: runJob(job, exec, id, nil)}
					continue
				}
				buf := &obs.Buffer{Job: job.Index}
				res := runJob(job, exec, id, buf)
				resCh <- tracedResult{res, buf.Events}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(resCh)
	}()

	var emitErr error
	for r := range resCh {
		if emitErr != nil {
			continue // drain
		}
		if err := emit(r.Result, r.events); err != nil {
			emitErr = err
			stopDispatch()
		}
	}
	if emitErr != nil {
		return emitErr
	}
	return ctx.Err()
}
