package campaignd

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"grinch/internal/campaign"
)

// expoSum sums every sample of the named series in a Prometheus text
// exposition whose line also contains match ("" matches all).
func expoSum(t *testing.T, body, name, match string) int {
	t.Helper()
	sum := 0
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') || !strings.Contains(line, match) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.Atoi(fields[len(fields)-1])
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestViewsReconcile drives a campaign through one expired and
// re-issued lease, one duplicate batch and one shed report, then
// requires Metrics(), the /metrics exposition and the FleetStatus rows
// to tell the same story.
func TestViewsReconcile(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	srv, err := NewServer(Options{
		Now:               func() time.Time { return now },
		LeaseTTL:          10 * time.Second,
		MaxInflightIngest: 1,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec := campaign.Spec{Name: "recon", Kind: "toy", Seed: 11, Trials: 15}
	if _, err := srv.Submit(SubmitRequest{Spec: spec, ShardSize: 3}); err != nil {
		t.Fatal(err)
	}
	jobs := spec.Jobs()
	var wantDone, wantFailed int
	var wantEncs uint64
	report := func(leaseID string, idx ...int) {
		t.Helper()
		var batch []campaign.Result
		for _, i := range idx {
			r := campaign.Result{Job: jobs[i].Index, Point: jobs[i].Point, Seed: jobs[i].Seed,
				Measurement: campaign.Measurement{Encryptions: uint64(100 + i)}}
			if i%5 == 0 {
				r.Failed, r.Err = true, "injected"
			}
			batch = append(batch, r)
		}
		if err := srv.Ingest(leaseID, batch); err != nil {
			t.Fatalf("ingest %v: %v", idx, err)
		}
	}
	count := func(idx ...int) {
		for _, i := range idx {
			wantDone++
			wantEncs += uint64(100 + i)
			if i%5 == 0 {
				wantFailed++
			}
		}
	}
	acquire := func(worker string, shard int) string {
		t.Helper()
		l := srv.Acquire(worker).Lease
		if l == nil || l.Shard != shard {
			t.Fatalf("%s leased %+v, want shard %d", worker, l, shard)
		}
		return l.ID
	}

	// Shard 0: w-a reports two jobs and goes silent; the lease expires
	// and w-b finishes the shard, re-sending one batch.
	l0 := acquire("w-a", 0)
	report(l0, 0, 1)
	count(0, 1)
	now = now.Add(11 * time.Second)
	l1 := acquire("w-b", 0)
	report(l1, 2)
	report(l1, 1, 2) // the duplicate batch: two duplicate results
	count(2)
	if err := srv.Complete(l1); err != nil {
		t.Fatal(err)
	}
	// Shard 1 completes cleanly; shard 2 stays leased mid-way; shards 3
	// and 4 stay pending.
	l2 := acquire("w-b", 1)
	report(l2, 3, 4, 5)
	count(3, 4, 5)
	if err := srv.Complete(l2); err != nil {
		t.Fatal(err)
	}
	l3 := acquire("w-a", 2)
	report(l3, 6)
	count(6)

	// One report shed while the only ingest slot is taken.
	release, ok := srv.admitIngest()
	if !ok {
		t.Fatal("the first admission was refused")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathResults, strings.NewReader(`{"lease":"`+l3+`"}`)))
	release()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("report with the slot taken answered %d, want 429", rec.Code)
	}

	m := srv.Metrics()
	fs := srv.FleetStatus()
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, PathMetrics, nil))
	body := rec.Body.String()

	var rowDone, rowFailed, rowReissues int
	var rowEncs uint64
	rowShards := map[string]int{}
	for _, c := range fs.Campaigns {
		rowDone += c.Done
		rowFailed += c.Failed
		for _, sh := range c.Shards {
			rowEncs += sh.Encryptions
			rowReissues += sh.Reissues
			rowShards[sh.State]++
		}
	}
	for _, c := range []struct {
		what              string
		metrics, expo, fs int
		want              int
	}{
		{"jobs done", m.JobsDone, expoSum(t, body, "campaignd_jobs_done_total", ""), rowDone, wantDone},
		{"jobs failed", m.JobsFailed, expoSum(t, body, "campaignd_jobs_failed_total", ""), rowFailed, wantFailed},
		{"encryptions", int(m.Encryptions), expoSum(t, body, "campaignd_encryptions_total", ""), int(rowEncs), int(wantEncs)},
		{"shards done", m.ShardsDone, expoSum(t, body, "campaignd_shards", `state="done"`), rowShards[ShardDone], 2},
		{"shards leased", m.ShardsLeased, expoSum(t, body, "campaignd_shards", `state="leased"`), rowShards[ShardLeased], 1},
		{"shards pending", m.Shards - m.ShardsDone - m.ShardsLeased, expoSum(t, body, "campaignd_shards", `state="pending"`), rowShards[ShardPending], 2},
		{"leases issued", m.LeasesIssued, expoSum(t, body, "campaignd_leases_issued_total", ""), fs.LeasesIssued, 4},
		{"leases active", m.LeasesActive, expoSum(t, body, "campaignd_leases_active", ""), fs.LeasesActive, 1},
		{"reissues", m.Reissues, expoSum(t, body, "campaignd_lease_reissues_total", ""), rowReissues, 1},
		{"duplicates", m.Duplicates, expoSum(t, body, "campaignd_duplicate_results_total", ""), fs.Duplicates, 2},
		{"shed", m.Shed, expoSum(t, body, "campaignd_shed_total", ""), int(fs.Retry.ShedTotal), 1},
		{"workers", m.Workers, expoSum(t, body, "campaignd_workers_seen", ""), len(fs.Workers), 2},
	} {
		if c.metrics != c.want || c.expo != c.want || c.fs != c.want {
			t.Errorf("%s: Metrics() %d, /metrics %d, FleetStatus %d; want %d", c.what, c.metrics, c.expo, c.fs, c.want)
		}
	}
	if wantFailed == 0 {
		t.Error("fixture ingested no failed job")
	}
}
