package campaignd

import (
	"net/http"

	"grinch/internal/obs/metrics"
)

// This file is the coordinator's fleet-metrics surface: the Prometheus
// exposition (GET /metrics) and the machine-readable status
// (GET /api/v1/status). The job counters in the exposition derive from
// the shard result maps — the authoritative, deduplicated,
// journal-recovered store the merge itself reads — so for a merged
// campaign, campaignd_jobs_done_total exactly equals the merged JSONL
// row count (the CI reconciliation in scripts/ci_distributed.sh pins
// this). Worker-shipped telemetry deltas are aggregated per worker and
// additionally exposed with a worker="<id>" label.

// PromSnapshot assembles every series the coordinator exposes: its own
// state-derived counters and gauges, the per-shard ingestion-latency
// histograms, and the latest per-worker telemetry labeled worker="id".
// The result is sorted by identity, ready for metrics.WriteProm.
func (s *Server) PromSnapshot() []metrics.Series {
	reg := s.reg.Snapshot()
	s.mu.Lock()
	s.sweepLocked()
	synth := s.synthSeriesLocked(s.metricsLocked(reg))
	s.mu.Unlock()

	groups := [][]metrics.Series{synth, reg}
	for _, src := range s.telemetry.Sources() {
		groups = append(groups, metrics.WithLabel(s.telemetry.Source(src), "worker", src))
	}
	return metrics.Sum(groups...)
}

// synthSeriesLocked renders the coordinator's own series from the
// counter snapshot and the per-campaign tallies metricsLocked folded,
// under mu.
func (s *Server) synthSeriesLocked(m MetricsSnapshot, tallies []tally) []metrics.Series {
	counter := func(name, help string, v uint64, labels ...metrics.Label) metrics.Series {
		return metrics.Series{Name: name, Kind: metrics.KindCounter, Value: v, Help: help, Labels: labels}
	}
	gauge := func(name, help string, v int64, labels ...metrics.Label) metrics.Series {
		return metrics.Series{Name: name, Kind: metrics.KindGauge, Gauge: v, Help: help, Labels: labels}
	}
	var out []metrics.Series
	for i, id := range s.order {
		t, cl := tallies[i], metrics.L("campaign", id)
		out = append(out,
			gauge("campaignd_jobs", "Campaign grid size.", int64(s.campaigns[id].jobs), cl),
			counter("campaignd_jobs_done_total", "Results ingested into the authoritative shard store (deduplicated; reconciles with merged output rows).", uint64(t.done), cl),
			counter("campaignd_jobs_failed_total", "Ingested results whose job failed.", uint64(t.failed), cl),
			counter("campaignd_encryptions_total", "Victim encryptions summed over ingested results.", t.encs, cl),
		)
		for _, st := range []struct {
			state string
			n     int
		}{{ShardPending, t.pending}, {ShardLeased, t.leased}, {ShardDone, t.complete}} {
			out = append(out, gauge("campaignd_shards", "Shards by state.", int64(st.n), cl, metrics.L("state", st.state)))
		}
	}
	out = append(out,
		gauge("campaignd_campaigns", "Campaigns by state.", int64(m.Campaigns-m.CampaignsMerged), metrics.L("state", CampaignRunning)),
		gauge("campaignd_campaigns", "Campaigns by state.", int64(m.CampaignsMerged), metrics.L("state", CampaignMerged)),
		counter("campaignd_leases_issued_total", "Shard leases granted.", uint64(m.LeasesIssued)),
		counter("campaignd_lease_reissues_total", "Expired leases whose shard returned to pending.", uint64(m.Reissues)),
		counter("campaignd_duplicate_results_total", "Duplicate results discarded at ingestion.", uint64(m.Duplicates)),
		counter("campaignd_results_ingested_total", "Results accepted at ingestion (first copies only).", uint64(s.resultsIngested)),
		counter("campaignd_shed_total", "Ingest requests refused with 429 by overload admission control.", uint64(m.Shed)),
		gauge("campaignd_ingest_inflight", "Result-ingest requests currently in flight.", s.ingestInflight.Load()),
		gauge("campaignd_leases_active", "Live leases.", int64(m.LeasesActive)),
		gauge("campaignd_workers_seen", "Distinct workers ever seen.", int64(m.Workers)),
	)
	return out
}

// suggestedShardSize derives a shard-size hint from the job latency
// observed in reg: a shard should take roughly four lease TTLs of wall
// time — long enough to amortize lease round-trips, short enough that
// a lost node costs little. Returns 0 until ingestion-latency data
// exists.
func (s *Server) suggestedShardSize(reg []metrics.Series) int {
	var count, sum uint64
	for _, ser := range reg {
		if ser.Name == "campaignd_shard_job_ms" {
			count += ser.Count()
			sum += ser.Sum
		}
	}
	if count == 0 {
		return 0
	}
	// Sub-millisecond jobs round every observation to zero; clamp the
	// mean to the histogram's resolution so the hint stays finite
	// instead of reporting "no data" for a fleet that is simply fast.
	meanMS := float64(sum) / float64(count)
	if meanMS < 1 {
		meanMS = 1
	}
	n := int(4 * float64(s.opts.LeaseTTL.Milliseconds()) / meanMS)
	if n < 1 {
		n = 1
	}
	if n > 100000 {
		n = 100000
	}
	return n
}

// FleetStatus is the machine-readable coordinator status: the counter
// snapshot plus per-campaign shard detail (with latency quantiles),
// the worker directory, and the fleet's retry health.
type FleetStatus struct {
	MetricsSnapshot
	Campaigns []CampaignStatus `json:"campaigns"`
	Workers   []WorkerStatus   `json:"workers,omitempty"`
	Retry     RetryHealth      `json:"retry"`
}

// RetryHealth aggregates the fleet's resilience telemetry: how often
// the coordinator shed ingest load, and how much retrying and backing
// off the workers have reported (summed across the fleet from their
// heartbeat deltas). A healthy quiet fleet is all zeros; a rising
// retries count with flat shed points at the network, shed points at
// coordinator overload.
type RetryHealth struct {
	ShedTotal             uint64 `json:"shed_total"`
	WorkerRetriesTotal    uint64 `json:"worker_retries_total"`
	WorkerBackoffMSTotal  uint64 `json:"worker_backoff_ms_total"`
	WorkerShardsLostTotal uint64 `json:"worker_shards_lost_total"`
}

// retryHealth folds the fleet-wide retry telemetry from the worker
// delta store plus the coordinator's shed count.
func (s *Server) retryHealth(shed int) RetryHealth {
	h := RetryHealth{ShedTotal: uint64(shed)}
	for _, ser := range s.telemetry.Merged() {
		switch ser.Name {
		case "campaignw_report_retries_total":
			h.WorkerRetriesTotal += ser.Value
		case "campaignw_backoff_ms_total":
			h.WorkerBackoffMSTotal += ser.Value
		case "campaignw_shards_total":
			if v, ok := metrics.Find([]metrics.Series{ser}, ser.Name, metrics.L("outcome", "lost")); ok {
				h.WorkerShardsLostTotal += v.Value
			}
		}
	}
	return h
}

// WorkerStatus is one worker's row in the fleet status.
type WorkerStatus struct {
	ID                 string  `json:"id"`
	LastSeenAgoSeconds float64 `json:"last_seen_ago_seconds"`
	Leases             int     `json:"leases"`
	Results            int     `json:"results"`
}

// FleetStatus returns the current fleet status.
func (s *Server) FleetStatus() FleetStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fleetLocked()
}

// fleetLocked builds the fleet status from one sweep, one registry
// snapshot and one tally per campaign, so the totals and the rows
// agree. Caller holds s.mu.
func (s *Server) fleetLocked() FleetStatus {
	s.sweepLocked()
	reg := s.reg.Snapshot()
	m, tallies := s.metricsLocked(reg)
	fs := FleetStatus{MetricsSnapshot: m, Retry: s.retryHealth(m.Shed)}
	for i, id := range s.order {
		fs.Campaigns = append(fs.Campaigns, s.campaigns[id].status(tallies[i], reg))
	}
	now := s.now()
	for _, id := range sortedWorkerIDs(s.workers) {
		wi := s.workers[id]
		fs.Workers = append(fs.Workers, WorkerStatus{
			ID:                 id,
			LastSeenAgoSeconds: now.Sub(wi.lastSeen).Seconds(),
			Leases:             wi.leases,
			Results:            wi.results,
		})
	}
	return fs
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	if err := metrics.WriteProm(w, s.PromSnapshot()); err != nil {
		s.logf("metrics exposition: %v", err)
	}
}

// handleStatusJSON serves the machine-readable fleet status.
func (s *Server) handleStatusJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.FleetStatus())
}

// applyDelta installs a request's piggybacked telemetry, if any.
func (s *Server) applyDelta(worker string, d *metrics.Delta) {
	if d == nil || worker == "" {
		return
	}
	s.telemetry.Apply(worker, *d)
}

// WorkerTelemetry returns the latest series a worker shipped (nil if
// the worker never sent a delta). Exposed for tests and embedders.
func (s *Server) WorkerTelemetry(worker string) []metrics.Series {
	return s.telemetry.Source(worker)
}
