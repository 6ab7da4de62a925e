package campaign

import (
	"fmt"
	"reflect"
	"testing"

	"grinch/internal/faults"
	"grinch/internal/rng"
)

// nestedJobs is the reference expansion: one nested loop per axis,
// platforms outermost and trials innermost, appending in order.
func nestedJobs(s Spec) []Job {
	s = s.normalized()
	platforms, mhz, lineWords := s.Platforms, s.MHz, s.LineWords
	flush, probeRounds, plans := s.Flush, s.ProbeRounds, s.FaultPlans
	if len(platforms) == 0 {
		platforms = []string{""}
	}
	if len(mhz) == 0 {
		mhz = []uint64{0}
	}
	if len(lineWords) == 0 {
		lineWords = []int{0}
	}
	if len(flush) == 0 {
		flush = []bool{false}
	}
	if len(probeRounds) == 0 {
		probeRounds = []int{0}
	}
	if len(plans) == 0 {
		plans = []faults.Plan{{}}
	}
	var retry RetrySpec
	if s.Retry != nil {
		retry = *s.Retry
	}
	var jobs []Job
	for _, pl := range platforms {
		for _, f := range mhz {
			for _, lw := range lineWords {
				for _, fl := range flush {
					for _, pr := range probeRounds {
						for _, plan := range plans {
							for t := 0; t < s.Trials; t++ {
								idx := len(jobs)
								jobs = append(jobs, Job{
									Index: idx,
									Point: Point{Kind: s.Kind, Platform: pl, MHz: f, LineWords: lw,
										Flush: fl, ProbeRound: pr, Fault: plan.Name, Trial: t},
									Seed: DeriveSeed(s.Seed, idx), Budget: s.Budget, FaultPlan: plan,
									Retry: retry, DeadlinePS: s.DeadlinePS, ScalarPath: s.ScalarPath,
								})
							}
						}
					}
				}
			}
		}
	}
	return jobs
}

// randomSpec draws a spec with every axis independently empty or
// swept, sometimes with fault plans and a retry policy.
func randomSpec(r *rng.Source, i int) Spec {
	s := Spec{Name: fmt.Sprintf("prop-%d", i), Kind: "toy", Seed: r.Uint64(), Trials: r.Intn(4),
		Budget: uint64(r.Intn(5000)), DeadlinePS: uint64(r.Intn(3)) * 1000, ScalarPath: r.Intn(2) == 0}
	for n := r.Intn(3); n > 0; n-- {
		s.Platforms = append(s.Platforms, fmt.Sprintf("p%d", n))
	}
	for n := r.Intn(4); n > 0; n-- {
		s.MHz = append(s.MHz, uint64(10*n))
	}
	for n := r.Intn(4); n > 0; n-- {
		s.LineWords = append(s.LineWords, 1<<n)
	}
	if r.Intn(2) == 0 {
		s.Flush = []bool{false, true}
	}
	for n := r.Intn(4); n > 0; n-- {
		s.ProbeRounds = append(s.ProbeRounds, n)
	}
	for n := r.Intn(3); n > 0; n-- {
		s.FaultPlans = append(s.FaultPlans, faults.Plan{Name: fmt.Sprintf("plan%d", n), Seed: uint64(n),
			Faults: []faults.Fault{{Kind: faults.KindDrop, Probability: 0.1 * float64(n)}}})
	}
	if r.Intn(2) == 0 {
		s.Retry = &RetrySpec{Attempts: 1 + r.Intn(3), BackoffPS: uint64(r.Intn(100))}
	}
	return s
}

// TestJobsInMatchesJobs: JobsIn(a, b) is Jobs()[a:b] after clamping the
// range to the grid, for random multi-axis specs and for the empty,
// full, inverted and out-of-bounds ranges; Jobs itself still expands
// exactly as the nested axis loops do.
func TestJobsInMatchesJobs(t *testing.T) {
	r := rng.New(14)
	for i := 0; i < 200; i++ {
		s := randomSpec(r, i)
		all := s.Jobs()
		if want := nestedJobs(s); !reflect.DeepEqual(all, want) {
			t.Fatalf("spec %d: Jobs() differs from the nested-loop expansion", i)
		}
		n := s.NumJobs()
		if len(all) != n {
			t.Fatalf("spec %d: %d jobs, NumJobs %d", i, len(all), n)
		}
		ranges := [][2]int{{0, n}, {0, 0}, {n, n}, {-3, n + 5}, {n - 1, n + 1}, {n + 2, n + 9}, {5, 2}, {-4, -1}}
		for k := 0; k < 6; k++ {
			a := r.Intn(n+4) - 2
			ranges = append(ranges, [2]int{a, a + r.Intn(n+4)})
		}
		for _, rg := range ranges {
			a, b := max(rg[0], 0), min(rg[1], n)
			got := s.JobsIn(rg[0], rg[1])
			if a >= b {
				if len(got) != 0 {
					t.Fatalf("spec %d: JobsIn(%d, %d) = %d jobs, want none", i, rg[0], rg[1], len(got))
				}
				continue
			}
			if !reflect.DeepEqual(got, all[a:b]) {
				t.Fatalf("spec %d: JobsIn(%d, %d) differs from Jobs()[%d:%d]", i, rg[0], rg[1], a, b)
			}
		}
	}
}
