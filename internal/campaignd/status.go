package campaignd

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"

	"grinch/internal/obs/metrics"
)

// MetricsSnapshot is the coordinator's operator-telemetry counter set,
// JSON-serializable for expvar publication (cmd/campaignd publishes it
// as the "campaignd" variable on /debug/vars).
type MetricsSnapshot struct {
	Campaigns       int     `json:"campaigns"`
	CampaignsMerged int     `json:"campaigns_merged"`
	Shards          int     `json:"shards"`
	ShardsDone      int     `json:"shards_done"`
	ShardsLeased    int     `json:"shards_leased"`
	JobsTotal       int     `json:"jobs_total"`
	JobsDone        int     `json:"jobs_done"`
	JobsFailed      int     `json:"jobs_failed"`
	Encryptions     uint64  `json:"encryptions"`
	LeasesIssued    int     `json:"leases_issued"`
	LeasesActive    int     `json:"leases_active"`
	Reissues        int     `json:"reissues"`
	Duplicates      int     `json:"duplicates"`
	Shed            int     `json:"shed"`
	Workers         int     `json:"workers"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
	JobsPerSecond   float64 `json:"jobs_per_second"`
	// ETASeconds estimates time-to-drain from the observed ingestion
	// rate (0 when idle or done). SuggestedShardSize is a shard-size
	// hint derived from observed job latency against the lease TTL (0
	// until latency data accumulates).
	ETASeconds         float64 `json:"eta_seconds"`
	SuggestedShardSize int     `json:"suggested_shard_size"`
}

// Metrics returns the current snapshot. Jobs/sec is ingested results
// over uptime — a coarse operator number, not a benchmark.
func (s *Server) Metrics() MetricsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	m, _ := s.metricsLocked(s.reg.Snapshot())
	return m
}

// metricsLocked tallies every campaign once, in submission order, and
// sums the counter snapshot from those tallies; callers that also
// render per-campaign views reuse the returned tallies. reg is the
// request's one registry snapshot, the source of the shard-size hint.
// Caller holds s.mu and has swept.
func (s *Server) metricsLocked(reg []metrics.Series) (MetricsSnapshot, []tally) {
	m := MetricsSnapshot{
		Campaigns:    len(s.order),
		LeasesIssued: s.leasesIssued,
		LeasesActive: len(s.leases),
		Reissues:     s.reissues,
		Duplicates:   s.duplicates,
		Shed:         int(s.shed.Load()),
		Workers:      len(s.workers),
	}
	tallies := make([]tally, len(s.order))
	for i, id := range s.order {
		c := s.campaigns[id]
		t := c.tally()
		tallies[i] = t
		if c.merged {
			m.CampaignsMerged++
		}
		m.JobsTotal += c.jobs
		m.Shards += len(c.shards)
		m.ShardsDone += t.complete
		m.ShardsLeased += t.leased
		m.JobsDone += t.done
		m.JobsFailed += t.failed
		m.Encryptions += t.encs
	}
	up := s.now().Sub(s.started).Seconds()
	m.UptimeSeconds = up
	if up > 0 {
		m.JobsPerSecond = float64(s.resultsIngested) / up
	}
	if m.JobsPerSecond > 0 && m.JobsTotal > m.JobsDone {
		m.ETASeconds = float64(m.JobsTotal-m.JobsDone) / m.JobsPerSecond
	}
	m.SuggestedShardSize = s.suggestedShardSize(reg)
	return m, tallies
}

// statusModel is the template input for the status page: the fleet
// status plus each failed merge's error, keyed by campaign ID.
type statusModel struct {
	FleetStatus
	MergeErrs map[string]string
}

var statusTmpl = template.Must(template.New("status").Parse(`<!DOCTYPE html>
<html><head><title>campaignd</title>
<style>
body { font-family: monospace; margin: 2em; }
table { border-collapse: collapse; margin: 0.6em 0 1.4em; }
td, th { border: 1px solid #999; padding: 2px 10px; text-align: left; }
th { background: #eee; }
.done { color: #060; } .leased { color: #06c; } .pending { color: #666; }
</style></head><body>
<h2>campaignd — distributed campaign coordinator</h2>
{{with .MetricsSnapshot}}<p>{{.Campaigns}} campaigns ({{.CampaignsMerged}} merged) ·
{{.JobsDone}}/{{.JobsTotal}} jobs ({{.JobsFailed}} failed) ·
{{printf "%.1f" .JobsPerSecond}} jobs/sec ·
{{.LeasesActive}} active leases ({{.LeasesIssued}} issued, {{.Reissues}} re-issued, {{.Duplicates}} duplicate results, {{.Shed}} shed) ·
{{.Workers}} workers seen ·
up {{printf "%.0f" .UptimeSeconds}}s ·
<a href="/debug/vars">expvar</a> · <a href="/debug/pprof/">pprof</a></p>{{end}}
{{range .Campaigns}}
<h3>{{.ID}} — {{.Name}} [{{.State}}] {{.Done}}/{{.Jobs}} jobs{{if .Failed}}, {{.Failed}} failed{{end}}{{with index $.MergeErrs .ID}} — merge error: {{.}}{{end}}</h3>
<table><tr><th>shard</th><th>jobs</th><th>state</th><th>worker</th><th>done</th><th>re-issues</th></tr>
{{range .Shards}}<tr><td>{{.Shard}}</td><td>[{{.Start}},{{.End}})</td><td class="{{.State}}">{{.State}}</td><td>{{.Worker}}</td><td>{{.Done}}/{{.Len}}</td><td>{{.Reissues}}</td></tr>
{{end}}</table>
{{else}}<p>No campaigns submitted. POST a spec to /api/v1/campaigns.</p>
{{end}}
{{if .Workers}}<h3>workers</h3>
<table><tr><th>worker</th><th>last seen</th><th>leases</th><th>results</th></tr>
{{range .Workers}}<tr><td>{{.ID}}</td><td>{{printf "%.1f" .LastSeenAgoSeconds}}s ago</td><td>{{.Leases}}</td><td>{{.Results}}</td></tr>
{{end}}</table>{{end}}
</body></html>
`))

// handleStatusPage renders the human-facing shard board.
func (s *Server) handleStatusPage(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	model := statusModel{FleetStatus: s.fleetLocked(), MergeErrs: map[string]string{}}
	for _, id := range s.order {
		if e := s.campaigns[id].mergeErr; e != "" {
			model.MergeErrs[id] = e
		}
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statusTmpl.Execute(w, model); err != nil {
		s.logf("status page: %v", err)
	}
}

// sortedWorkerIDs lists the worker directory's keys in sorted order.
func sortedWorkerIDs(workers map[string]*workerSeen) []string {
	ids := make([]string, 0, len(workers))
	for id := range workers { //grinchvet:ignore maporder key collection; sorted on the next line
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// String renders the snapshot compactly for logs.
func (m MetricsSnapshot) String() string {
	return fmt.Sprintf("campaigns %d/%d merged, jobs %d/%d (%d failed), leases %d active, %.1f jobs/sec",
		m.CampaignsMerged, m.Campaigns, m.JobsDone, m.JobsTotal, m.JobsFailed, m.LeasesActive, m.JobsPerSecond)
}
