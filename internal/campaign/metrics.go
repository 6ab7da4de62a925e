package campaign

import (
	"encoding/json"
	"sync"
	"sync/atomic"

	"grinch/internal/stats"
)

// Metrics counts what a running campaign is doing. All methods are safe
// for concurrent use; the runner updates them from every worker. The
// String method renders the current snapshot as JSON, which makes
// *Metrics satisfy the standard library's expvar.Var interface — a
// caller that serves /debug/vars can expvar.Publish it directly, and
// sinks or progress tickers can serialize the same snapshot.
type Metrics struct {
	jobsTotal   atomic.Uint64
	jobsDone    atomic.Uint64
	jobsFailed  atomic.Uint64
	jobsSkipped atomic.Uint64
	encryptions atomic.Uint64
	queueDepth  atomic.Int64
	inFlight    atomic.Int64

	mu  sync.Mutex
	dur stats.Accum // per-job wall durations, milliseconds
}

// NewMetrics returns a zeroed metrics set.
func NewMetrics() *Metrics { return &Metrics{} }

// Snapshot is a point-in-time copy of the counters, flat and
// JSON-serializable.
type Snapshot struct {
	// JobsTotal is the grid size; JobsDone counts executed jobs this
	// run (failures included); JobsSkipped counts journal-resumed jobs.
	// JobsFailed counts each failed job in the grid exactly once:
	// failures replayed from the journal plus failures executed this
	// run — a resumed job is never double-counted.
	JobsTotal   uint64 `json:"jobs_total"`
	JobsDone    uint64 `json:"jobs_done"`
	JobsFailed  uint64 `json:"jobs_failed"`
	JobsSkipped uint64 `json:"jobs_skipped"`
	// Encryptions is the victim-encryption total across executed jobs.
	Encryptions uint64 `json:"encryptions"`
	// QueueDepth is jobs expanded but not yet picked up by a worker;
	// InFlight is jobs currently executing.
	QueueDepth int64 `json:"queue_depth"`
	InFlight   int64 `json:"in_flight"`
	// Per-job wall-clock duration statistics, in milliseconds.
	JobMSMean float64 `json:"job_ms_mean"`
	JobMSMax  float64 `json:"job_ms_max"`
}

// Snapshot returns the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	mean, max := m.dur.Mean(), m.dur.Max()
	m.mu.Unlock()
	return Snapshot{
		JobsTotal:   m.jobsTotal.Load(),
		JobsDone:    m.jobsDone.Load(),
		JobsFailed:  m.jobsFailed.Load(),
		JobsSkipped: m.jobsSkipped.Load(),
		Encryptions: m.encryptions.Load(),
		QueueDepth:  m.queueDepth.Load(),
		InFlight:    m.inFlight.Load(),
		JobMSMean:   mean,
		JobMSMax:    max,
	}
}

// String renders the snapshot as JSON (expvar.Var compatible).
func (m *Metrics) String() string {
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// begin seeds the counters for a run. priorFailed is how many of the
// skipped (journal-replayed) jobs had failed: seeding jobsFailed with
// it — instead of re-counting replays as they pass through the sinks —
// is what keeps a resumed failure counted exactly once.
func (m *Metrics) begin(total, skipped, priorFailed int) {
	m.jobsTotal.Store(uint64(total))
	m.jobsSkipped.Store(uint64(skipped))
	m.jobsFailed.Store(uint64(priorFailed))
	m.queueDepth.Store(int64(total - skipped))
}

func (m *Metrics) jobStarted() {
	m.queueDepth.Add(-1)
	m.inFlight.Add(1)
}

func (m *Metrics) jobEnded() { m.inFlight.Add(-1) }

func (m *Metrics) jobFinished(r Result) {
	m.jobsDone.Add(1)
	if r.Failed {
		m.jobsFailed.Add(1)
	}
	m.encryptions.Add(r.Encryptions)
	m.mu.Lock()
	m.dur.Add(float64(r.DurationNS) / 1e6)
	m.mu.Unlock()
}

// drainQueue zeroes the jobs a stopped run never dispatched, so a
// final snapshot does not report phantom pending work.
func (m *Metrics) drainQueue() { m.queueDepth.Store(0) }
