package worker

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grinch/internal/campaign"
	"grinch/internal/campaignd"
	"grinch/internal/obs"
)

// The tests below drive the worker's report pipeline against a real
// coordinator behind a middleware that can hold, fail or observe the
// worker's requests.

const (
	pipeBatch   = 4
	pipeWorkers = 2
)

// countingExec is a deterministic toy executor that counts finished
// jobs.
func countingExec(n *atomic.Int64) campaign.Executor {
	return func(job campaign.Job, _ obs.Tracer) (campaign.Measurement, error) {
		defer n.Add(1)
		return campaign.Measurement{Encryptions: job.Seed % 1000}, nil
	}
}

// coordinator submits spec in shards of shardSize to a fresh
// coordinator and serves it through mw.
func coordinator(t *testing.T, opts campaignd.Options, spec campaign.Spec, shardSize int, mw func(http.Handler) http.Handler) (*campaignd.Server, string, string) {
	t.Helper()
	srv, err := campaignd.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	sub, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: shardSize})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mw(srv))
	t.Cleanup(ts.Close)
	return srv, sub.ID, ts.URL
}

func pipeConfig(t *testing.T, url string, exec campaign.Executor) Config {
	return Config{Server: url, ID: "w-pipe", Exec: exec, Workers: pipeWorkers, Batch: pipeBatch,
		Poll: 5 * time.Millisecond, Drain: true, Logf: t.Logf}
}

// checkMerged compares the coordinator's merged output with a
// single-process run of the same spec.
func checkMerged(t *testing.T, srv *campaignd.Server, id string, spec campaign.Spec) {
	t.Helper()
	var ref bytes.Buffer
	var n atomic.Int64
	if _, err := campaign.Run(context.Background(), spec, countingExec(&n), campaign.Options{
		Workers: 1, Sinks: []campaign.Sink{&campaign.JSONLSink{W: &ref}},
	}); err != nil {
		t.Fatal(err)
	}
	out, err := srv.Output(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, ref.Bytes()) {
		t.Fatal("merged output differs from the single-process run")
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecutorsRunWhileReportHeld: while the coordinator holds the
// first report, the executors keep going until the pipeline is full —
// one batch in flight, one queued, one filling, plus one finished job
// per executor waiting to be emitted — and no further.
func TestExecutorsRunWhileReportHeld(t *testing.T) {
	spec := campaign.Spec{Name: "held", Kind: "toy", Seed: 5, Trials: 40}
	held, release := make(chan struct{}), make(chan struct{})
	var holdOnce sync.Once
	srv, id, url := coordinator(t, campaignd.Options{}, spec, 40, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == campaignd.PathResults {
				first := false
				holdOnce.Do(func() { first = true })
				if first {
					close(held)
					<-release
				}
			}
			next.ServeHTTP(w, r)
		})
	})
	var executed atomic.Int64
	done := make(chan error, 1)
	go func() { done <- Run(context.Background(), pipeConfig(t, url, countingExec(&executed))) }()
	// finish also runs as a cleanup, before the server's (which waits
	// for held handlers), so the worker never outlives a failed test.
	var runErr error
	finish := sync.OnceFunc(func() {
		close(release)
		runErr = <-done
	})
	t.Cleanup(finish)
	<-held
	const full = 3 * pipeBatch
	waitFor(t, "the executors to fill the pipeline", func() bool { return executed.Load() >= full })
	// Nothing signals a job that should not run: give the executors a
	// moment to overrun the bound if they could.
	time.Sleep(20 * time.Millisecond)
	if got := executed.Load(); got > full+pipeWorkers {
		t.Errorf("%d jobs executed while one report was held, want at most %d", got, full+pipeWorkers)
	}
	finish()
	if runErr != nil {
		t.Fatal(runErr)
	}
	checkMerged(t, srv, id, spec)
}

// TestCompleteFollowsLastAck: a shard's complete round-trip never
// reaches the coordinator while one of its reports is still
// unacknowledged, even when every report is slow.
func TestCompleteFollowsLastAck(t *testing.T) {
	spec := campaign.Spec{Name: "ack-order", Kind: "toy", Seed: 6, Trials: 30}
	var mu sync.Mutex
	inflight, completes, early := 0, 0, 0
	srv, id, url := coordinator(t, campaignd.Options{}, spec, 10, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case campaignd.PathResults:
				mu.Lock()
				inflight++
				mu.Unlock()
				time.Sleep(10 * time.Millisecond)
				next.ServeHTTP(w, r)
				mu.Lock()
				inflight--
				mu.Unlock()
				return
			case campaignd.PathComplete:
				mu.Lock()
				completes++
				if inflight != 0 {
					early++
				}
				mu.Unlock()
			}
			next.ServeHTTP(w, r)
		})
	})
	var executed atomic.Int64
	if err := Run(context.Background(), pipeConfig(t, url, countingExec(&executed))); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if completes != 3 || early != 0 {
		t.Errorf("%d completes, %d of them before the last report's acknowledgement; want 3 and 0", completes, early)
	}
	checkMerged(t, srv, id, spec)
}

// TestReportGoneCancelsShard: a 410 on a report cancels the shard (the
// executors stop at the pipeline bound instead of running the shard
// out), counts it lost, and the re-issued shard completes the campaign.
func TestReportGoneCancelsShard(t *testing.T) {
	spec := campaign.Spec{Name: "gone", Kind: "toy", Seed: 7, Trials: 40}
	var executed atomic.Int64
	var gone atomic.Bool
	atRelease := atomic.Int64{}
	atRelease.Store(-1)
	srv, id, url := coordinator(t, campaignd.Options{LeaseTTL: 100 * time.Millisecond}, spec, 40, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case campaignd.PathResults:
				if gone.CompareAndSwap(false, true) {
					http.Error(w, `{"error":"lease revoked"}`, http.StatusGone)
					return
				}
			case campaignd.PathLease:
				if gone.Load() {
					atRelease.CompareAndSwap(-1, executed.Load())
				}
			}
			next.ServeHTTP(w, r)
		})
	})
	m := newMeter()
	cfg := pipeConfig(t, url, countingExec(&executed))
	cfg.meter = m
	if err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if got := m.shardsLost.Value(); got != 1 {
		t.Errorf("shards lost = %d, want 1", got)
	}
	if got := m.shardsDone.Value(); got != 1 {
		t.Errorf("shards completed = %d, want 1", got)
	}
	if got := atRelease.Load(); got < 0 || got > 3*pipeBatch+pipeWorkers {
		t.Errorf("revoked shard ran %d of its 40 jobs, want at most %d", got, 3*pipeBatch+pipeWorkers)
	}
	checkMerged(t, srv, id, spec)
}

// TestPersistentReportFailureGivesUp: a report that keeps failing is
// retried for FlushRetries rounds, then the worker stops with the
// shard unfinished.
func TestPersistentReportFailureGivesUp(t *testing.T) {
	spec := campaign.Spec{Name: "failing", Kind: "toy", Seed: 8, Trials: 40}
	var reports, completes atomic.Int64
	_, _, url := coordinator(t, campaignd.Options{}, spec, 40, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case campaignd.PathResults:
				reports.Add(1)
				http.Error(w, `{"error":"disk on fire"}`, http.StatusInternalServerError)
				return
			case campaignd.PathComplete:
				completes.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	})
	m := newMeter()
	var executed atomic.Int64
	cfg := pipeConfig(t, url, countingExec(&executed))
	cfg.meter = m
	cfg.FlushRetries = 3
	single := campaignd.NoRetryPolicy()
	cfg.Retry = &single
	err := Run(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "flush failed after 3 rounds") {
		t.Fatalf("Run = %v, want a flush failure after 3 rounds", err)
	}
	if got := reports.Load(); got != 3 {
		t.Errorf("%d report attempts, want 3", got)
	}
	if got := m.flushRetries.Value(); got != 2 {
		t.Errorf("flush retries = %d, want 2", got)
	}
	if got := completes.Load(); got != 0 {
		t.Errorf("%d completes for a shard whose reports never landed", got)
	}
	if got := executed.Load(); got > 3*pipeBatch+pipeWorkers {
		t.Errorf("%d jobs executed behind a failing report, want at most %d", got, 3*pipeBatch+pipeWorkers)
	}
}
