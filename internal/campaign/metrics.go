package campaign

import (
	"encoding/json"

	"grinch/internal/obs"
	"grinch/internal/obs/metrics"
)

// Metrics is a campaign run's one source of counts: the campaign_*
// instruments over an obs/metrics registry. Run feeds them, and every
// view derives from them — Snapshot (the progress ticker and the
// summary), String (expvar.Var, so a caller serving /debug/vars can
// expvar.Publish a *Metrics directly) and Registry (the /metrics
// exposition). Reads are safe while a run is live.
//
// A nil *Metrics is inert: Run pays one nil check per job and
// allocates nothing for it. Counters accumulate across runs that
// share one Metrics; the gauges describe the latest run.
type Metrics struct {
	reg *metrics.Registry

	jobs, queue, inFlight *metrics.Gauge
	// Every grid job lands in exactly one of these four: executed this
	// run (done or failed) or replayed from the journal (done or
	// failed).
	done, failed, replayedDone, replayedFailed *metrics.Counter

	encryptions, retries, faults, partial, droppedOut *metrics.Counter
	jobEnc                                            *metrics.Histogram
	// wallUS observes each executed job's wall time in microseconds —
	// toy and fleet jobs run well under a millisecond — and wallMaxUS
	// holds the longest.
	wallUS    *metrics.Histogram
	wallMaxUS *metrics.Gauge
}

// wallUSBuckets covers per-job wall durations from 25µs to 1min.
var wallUSBuckets = []uint64{25, 50, 100, 250, 500, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5,
	1e6, 2.5e6, 5e6, 1e7, 3e7, 6e7}

// NewMetrics builds a registry and resolves the campaign instruments
// on it.
func NewMetrics() *Metrics {
	r := metrics.New()
	executed := func(status string) *metrics.Counter {
		return r.Counter("campaign_jobs_total",
			"Jobs executed this run, by terminal status.", metrics.L("status", status))
	}
	replayed := func(status string) *metrics.Counter {
		return r.Counter("campaign_jobs_replayed_total",
			"Jobs replayed from the journal instead of executed, by terminal status.", metrics.L("status", status))
	}
	return &Metrics{
		reg:            r,
		jobs:           r.Gauge("campaign_jobs", "Campaign grid size."),
		queue:          r.Gauge("campaign_queue_depth", "Jobs expanded but not yet picked up by a worker."),
		inFlight:       r.Gauge("campaign_in_flight", "Jobs currently executing."),
		done:           executed("done"),
		failed:         executed("failed"),
		replayedDone:   replayed("done"),
		replayedFailed: replayed("failed"),
		encryptions: r.Counter("campaign_encryptions_total",
			"Victim encryptions consumed across executed jobs."),
		retries: r.Counter("campaign_retries_total",
			"Transient-failure retries spent across executed jobs."),
		faults: r.Counter("campaign_faults_total",
			"Faults the injector fired across executed jobs."),
		partial: r.Counter("campaign_partial_total",
			"Jobs that ended in a structured partial result."),
		droppedOut: r.Counter("campaign_dropped_out_total",
			"Jobs that blew their encryption budget (the paper's >1M cells)."),
		jobEnc: r.Histogram("campaign_job_encryptions",
			"Victim encryptions per executed job.", metrics.EncryptionBuckets),
		wallUS: r.WallHistogram("campaign_job_wall_us",
			"Per-job wall-clock duration, microseconds (non-deterministic).", wallUSBuckets),
		wallMaxUS: r.WallGauge("campaign_job_wall_us_max",
			"Longest executed job's wall-clock duration, microseconds (non-deterministic)."),
	}
}

// Registry returns the registry holding the campaign_* series, for the
// /metrics exposition (nil on a nil Metrics).
func (m *Metrics) Registry() *metrics.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Snapshot is a point-in-time view of the counters, flat and
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
	// Per-job wall-clock duration statistics, in milliseconds, at
	// microsecond resolution.
	JobMSMean float64 `json:"job_ms_mean"`
	JobMSMax  float64 `json:"job_ms_max"`
}

// Snapshot reads the current instrument values.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	failed, replayedFailed := m.failed.Value(), m.replayedFailed.Value()
	s := Snapshot{
		JobsTotal:   uint64(m.jobs.Value()),
		JobsDone:    m.done.Value() + failed,
		JobsFailed:  failed + replayedFailed,
		JobsSkipped: m.replayedDone.Value() + replayedFailed,
		Encryptions: m.encryptions.Value(),
		QueueDepth:  m.queue.Value(),
		InFlight:    m.inFlight.Value(),
		JobMSMax:    float64(m.wallMaxUS.Value()) / 1e3,
	}
	if n := m.wallUS.Count(); n > 0 {
		s.JobMSMean = float64(m.wallUS.Sum()) / float64(n) / 1e3
	}
	return s
}

// String renders the snapshot as JSON (expvar.Var compatible).
func (m *Metrics) String() string {
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// begin sets the run's gauges and accounts the journal-replayed jobs
// under their own series, so a replayed failure is counted once and
// never again as it passes through the sinks.
func (m *Metrics) begin(total, skipped, priorFailed int) {
	if m == nil {
		return
	}
	m.jobs.Set(int64(total))
	m.queue.Set(int64(total - skipped))
	m.replayedDone.Add(uint64(skipped - priorFailed))
	m.replayedFailed.Add(uint64(priorFailed))
}

// counted wraps exec so each job moves from the queue gauge to the
// in-flight gauge while it runs. A nil Metrics returns exec unchanged.
func (m *Metrics) counted(exec Executor) Executor {
	if m == nil {
		return exec
	}
	return func(job Job, tr obs.Tracer) (Measurement, error) {
		m.queue.Add(-1)
		m.inFlight.Add(1)
		defer m.inFlight.Add(-1)
		return exec(job, tr)
	}
}

// finished accounts one executed job. Run calls it from ExecuteJobs'
// single emit goroutine, so the read-then-set of the max gauge cannot
// lose a larger value.
func (m *Metrics) finished(r Result) {
	if m == nil {
		return
	}
	if r.Failed {
		m.failed.Inc()
	} else {
		m.done.Inc()
	}
	m.encryptions.Add(r.Encryptions)
	m.retries.Add(r.Retries)
	m.faults.Add(r.Faults)
	if r.Partial {
		m.partial.Inc()
	}
	if r.DroppedOut {
		m.droppedOut.Inc()
	}
	m.jobEnc.Observe(r.Encryptions)
	us := r.DurationNS / 1e3
	m.wallUS.Observe(uint64(us))
	if us > m.wallMaxUS.Value() {
		m.wallMaxUS.Set(us)
	}
}

// end zeroes the jobs a stopped run never dispatched, so a final
// snapshot does not report phantom pending work.
func (m *Metrics) end() {
	if m != nil {
		m.queue.Set(0)
	}
}
