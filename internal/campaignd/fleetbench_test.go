package campaignd_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"grinch/internal/campaign"
	"grinch/internal/campaignd"
	"grinch/internal/campaignd/worker"
	"grinch/internal/experiments"
)

// BenchmarkFleetPass runs one 1,000-job campaign of probe-round-1
// first-round attacks per op through an in-process coordinator with a
// journal directory and one worker with a 2-job pool over loopback
// HTTP, in shards of 50 and report batches of 10. Besides jobs/s it
// reports counts that do not depend on the host: coordinator requests
// and journal writes per job (allocs/op covers the whole pass, both
// sides of the wire).
func BenchmarkFleetPass(b *testing.B) {
	const jobs, shard, batch, pool = 1000, 50, 10, 2
	spec := campaign.Spec{Name: "fleet", Kind: experiments.KindFirstRound, Seed: 14, Trials: jobs,
		Budget: 100_000, LineWords: []int{1}, Flush: []bool{true}, ProbeRounds: []int{1}}
	var requests atomic.Int64
	writes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := campaignd.NewServer(campaignd.Options{DataDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			srv.ServeHTTP(w, r)
		}))
		sub, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: shard})
		if err != nil {
			b.Fatal(err)
		}
		err = worker.Run(context.Background(), worker.Config{Server: ts.URL, ID: "bench",
			Exec: experiments.Execute, Workers: pool, Batch: batch, Drain: true})
		if err != nil {
			b.Fatal(err)
		}
		writes += campaignd.JournalWrites(srv, sub.ID)
		ts.Close()
		srv.Close()
	}
	total := float64(b.N * jobs)
	b.ReportMetric(total/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(requests.Load())/total, "requests/job")
	b.ReportMetric(float64(writes)/total, "journal_writes/job")
}
