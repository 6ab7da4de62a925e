package campaign

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"grinch/internal/obs"
	"grinch/internal/obs/metrics"
)

// writeHalfJournal journals the first half of spec's grid by hand, as
// an earlier interrupted run would have left it: every third job
// failed, the others carry toyExec's measurement. It returns the
// journal path and how many of the journaled jobs failed.
func writeHalfJournal(t *testing.T, spec Spec) (path string, failed int) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "toy.journal")
	j, _, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs := spec.Jobs()
	for i := 0; i < len(jobs)/2; i++ {
		r := Result{Job: jobs[i].Index, Point: jobs[i].Point, Seed: jobs[i].Seed}
		if i%3 == 0 {
			r.Failed = true
			r.Err = "injected (previous run)"
			failed++
		} else {
			m, _ := toyExec(jobs[i], nil)
			r.Measurement = m
		}
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path, failed
}

// sumJobSeries sums the per-status job counters of a registry snapshot
// (executed and journal-replayed), and separately their failed shares.
func sumJobSeries(series []metrics.Series) (all, failed uint64) {
	for _, s := range series {
		if s.Name != "campaign_jobs_total" && s.Name != "campaign_jobs_replayed_total" {
			continue
		}
		all += s.Value
		for _, l := range s.Labels {
			if l.Key == "status" && l.Value == "failed" {
				failed += s.Value
			}
		}
	}
	return all, failed
}

// TestJobSeriesSumToGrid: after a resume over a journal holding 6
// failures among 18 jobs, the status series account every grid job
// exactly once — a replayed failure is neither also "skipped" nor
// counted twice.
func TestJobSeriesSumToGrid(t *testing.T) {
	spec := testSpec()
	path, priorFailed := writeHalfJournal(t, spec)
	if priorFailed != 6 || spec.NumJobs() != 36 {
		t.Fatalf("fixture drifted: %d journaled failures in a %d-job grid", priorFailed, spec.NumJobs())
	}
	m := NewMetrics()
	if _, err := Run(context.Background(), spec, toyExec,
		Options{Workers: 2, Journal: path, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	all, failed := sumJobSeries(m.Registry().Snapshot())
	if all != uint64(spec.NumJobs()) {
		t.Errorf("job status series sum to %d, want the grid size %d", all, spec.NumJobs())
	}
	if failed != uint64(priorFailed) {
		t.Errorf("failed status series sum to %d, want %d (toyExec never fails)", failed, priorFailed)
	}
}

// TestJobWallPrecision: toy jobs run in a fraction of a millisecond,
// so the wall statistics must keep sub-millisecond resolution — the
// mean agrees with the results' own durations to within a microsecond.
func TestJobWallPrecision(t *testing.T) {
	m := NewMetrics()
	col := &Collector{}
	if _, err := Run(context.Background(), testSpec(), toyExec,
		Options{Workers: 2, Metrics: m, Sinks: []Sink{col}}); err != nil {
		t.Fatal(err)
	}
	var sumNS int64
	for _, r := range col.Results {
		sumNS += r.DurationNS
	}
	wantMS := float64(sumNS) / float64(len(col.Results)) / 1e6
	snap := m.Snapshot()
	if snap.JobMSMean <= 0 || snap.JobMSMean > snap.JobMSMax {
		t.Fatalf("job_ms_mean %v, job_ms_max %v: want 0 < mean <= max", snap.JobMSMean, snap.JobMSMax)
	}
	if d := snap.JobMSMean - wantMS; d > 1e-3 || d < -1e-3 {
		t.Errorf("job_ms_mean %v, results' mean %v ms: off by more than 1µs", snap.JobMSMean, wantMS)
	}
}

// TestSnapshotIsRegistryView: after a resume, every Snapshot field is
// the value of its registry series (and agrees with the Report). The
// views are read while the run is live, as the ticker and /metrics do.
func TestSnapshotIsRegistryView(t *testing.T) {
	spec := testSpec()
	path, _ := writeHalfJournal(t, spec)
	m := NewMetrics()
	stop, read := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = m.String(), m.Registry().Snapshot()
			}
		}
	}()
	rep, err := Run(context.Background(), spec, func(job Job, tr obs.Tracer) (Measurement, error) {
		if job.Index%5 == 0 {
			return Measurement{}, fmt.Errorf("injected (this run)")
		}
		return toyExec(job, tr)
	}, Options{Workers: 3, Journal: path, Metrics: m})
	close(stop)
	<-read
	if err != nil {
		t.Fatal(err)
	}
	snap, series := m.Snapshot(), m.Registry().Snapshot()
	get := func(name string, labels ...metrics.Label) metrics.Series {
		t.Helper()
		s, ok := metrics.Find(series, name, labels...)
		if !ok {
			t.Fatalf("registry has no series %s%v", name, labels)
		}
		return s
	}
	count := func(name, status string) uint64 { return get(name, metrics.L("status", status)).Value }
	wall := get("campaign_job_wall_us")
	for _, c := range []struct {
		field     string
		got, want float64
	}{
		{"jobs_total", float64(snap.JobsTotal), float64(get("campaign_jobs").Gauge)},
		{"jobs_done", float64(snap.JobsDone), float64(count("campaign_jobs_total", "done") + count("campaign_jobs_total", "failed"))},
		{"jobs_failed", float64(snap.JobsFailed), float64(count("campaign_jobs_total", "failed") + count("campaign_jobs_replayed_total", "failed"))},
		{"jobs_skipped", float64(snap.JobsSkipped), float64(count("campaign_jobs_replayed_total", "done") + count("campaign_jobs_replayed_total", "failed"))},
		{"encryptions", float64(snap.Encryptions), float64(get("campaign_encryptions_total").Value)},
		{"queue_depth", float64(snap.QueueDepth), float64(get("campaign_queue_depth").Gauge)},
		{"in_flight", float64(snap.InFlight), float64(get("campaign_in_flight").Gauge)},
		{"job_ms_mean", snap.JobMSMean, wall.Mean() / 1e3},
		{"job_ms_max", snap.JobMSMax, float64(get("campaign_job_wall_us_max").Gauge) / 1e3},
		// The report counts the same run independently.
		{"jobs_total (report)", float64(snap.JobsTotal), float64(rep.Total)},
		{"jobs_done (report)", float64(snap.JobsDone), float64(rep.Executed)},
		{"jobs_failed (report)", float64(snap.JobsFailed), float64(rep.Failed + rep.FailedReplayed)},
		{"jobs_skipped (report)", float64(snap.JobsSkipped), float64(rep.Skipped)},
		{"encryptions (report)", float64(snap.Encryptions), float64(rep.Encryptions)},
		{"wall observations", float64(wall.Count()), float64(rep.Executed)},
	} {
		if c.got != c.want {
			t.Errorf("%s: snapshot %v, registry %v", c.field, c.got, c.want)
		}
	}
	if snap.JobsFailed == 0 || snap.JobsSkipped == 0 || snap.JobsDone == 0 {
		t.Errorf("resume fixture exercised too little: %+v", snap)
	}
}

// TestNilMetricsIsInert: a nil Metrics (what Run gets without
// Options.Metrics) holds no registry and answers with zero counts.
func TestNilMetricsIsInert(t *testing.T) {
	var m *Metrics
	m.begin(36, 18, 6)
	m.finished(Result{Measurement: Measurement{Encryptions: 5}, DurationNS: 1e6})
	m.end()
	if m.Registry() != nil || m.Snapshot() != (Snapshot{}) || m.counted(toyExec) == nil {
		t.Fatal("nil Metrics reported counts")
	}
}
