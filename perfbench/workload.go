package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"grinch/internal/campaign"
	"grinch/internal/campaignd"
	"grinch/internal/campaignd/worker"
	"grinch/internal/experiments"
)

// poolWorkers bounds every campaign pool: at most two executors (and,
// on the fleet, two HTTP connections) run in the one process.
const poolWorkers = 2

// Grid sizes. Each workload runs its whole grid once per pass; pass p
// of a window draws its inputs from passSeed(seed, p), so a run
// averages over many keys, and the traced window runs a fixed number
// of passes, so its per-job counts repeat exactly for a given seed.
const (
	// attack-grid: budget-capped so jobs span about 0.05 to 15 ms. The
	// warm-up runs the same grid capped far lower, so its cost barely
	// depends on the keys the seed draws.
	gridBudget         = 100_000
	gridWarmBudget     = 20_000
	gridTrials         = 6
	gridRecoveryTrials = 16
	// platform: every platform attack drops out at its budget, which
	// makes its cost a fixed number of sessions whatever the key.
	platformRaceTrials   = 4
	platformEffortTrials = 2
	platformBudget       = 128
	// fleet: small shards and report batches of ~50 µs jobs.
	fleetJobs     = 1000
	fleetWarmJobs = 1000
	fleetShard    = 50
	fleetBatch    = 10
	// fleetChecked is how many passes of a window are compared with a
	// campaign.Run reference; each reference costs a pass's CPU time.
	fleetChecked = 5
)

var (
	gridProbeRounds  = []int{1, 2, 3, 4, 5, 6}
	gridLineWords    = []int{1, 2, 4, 8}
	gridTableRounds  = []int{1, 2, 3}
	platformFreqs    = []uint64{10, 25, 50}
	platformPlatform = []string{"soc", "mpsoc"}
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"attack-grid", "platform", "fleet"}

// tracedPasses is how many passes a traced window runs, sized to about
// ten seconds each on a 2-vCPU host.
var tracedPasses = map[string]int{"attack-grid": 16, "platform": 10, "fleet": 30}

// passSeed is the input seed of pass p of a run seeded with seed.
func passSeed(seed uint64, p int) uint64 { return campaign.DeriveSeed(seed, p) }

// passResult is what one pass over a workload's grid produced.
type passResult struct {
	index        int // pass number within its window
	seed         uint64
	wall, cpu    time.Duration
	allocBytes   uint64
	jobs, failed int
	encryptions  uint64
	durs         []float64 // executor ms per job
	digest       [sha256.Size]byte
	results      []campaign.Result
	// Fleet only.
	journalBytes int64
	mergeMS      float64
	idleMS       float64
}

// instance is one set-up workload.
type instance interface {
	// pass runs the grid once on inputs made from seed; t is nil for an
	// untraced pass.
	pass(seed uint64, t *tracer) (passResult, error)
	// check verifies one pass's results after timing.
	check(passResult) []string
}

// newInstance sets a workload up: it builds the workload and runs its
// warm-up pass, a cheaper grid on inputs made from seed.
func newInstance(name string, seed uint64, dir string) (instance, error) {
	var in, warm instance
	switch name {
	case "attack-grid":
		in = &grid{verify: checkAttackGrid, specs: func(s uint64) []campaign.Spec {
			return attackGridSpecs(s, gridTrials, gridRecoveryTrials, gridBudget)
		}}
		warm = &grid{specs: func(s uint64) []campaign.Spec {
			return attackGridSpecs(s, gridTrials, gridRecoveryTrials, gridWarmBudget)
		}}
	case "platform":
		in = &grid{verify: checkPlatform, specs: func(s uint64) []campaign.Spec {
			return platformSpecs(s, platformRaceTrials, platformEffortTrials)
		}}
		warm = &grid{specs: func(s uint64) []campaign.Spec { return platformSpecs(s, 1, 1) }}
	case "fleet":
		in = &fleet{dir: dir, jobs: fleetJobs}
		warm = &fleet{dir: dir, jobs: fleetWarmJobs}
	default:
		return nil, fmt.Errorf("perfbench: unknown workload %q (want one of %v)", name, workloadNames)
	}
	if _, err := warm.pass(seed, nil); err != nil {
		return nil, err
	}
	return in, nil
}

// attackGridSpecs is Fig. 3 with and without flush, the Table I
// line-size grid and full-key recovery, on the ideal trace channel.
func attackGridSpecs(seed uint64, trials, recoveryTrials int, budget uint64) []campaign.Spec {
	opt := experiments.Options{Seed: seed, Trials: trials, Budget: budget}
	rec := opt
	rec.Trials = recoveryTrials
	return []campaign.Spec{
		experiments.Fig3Spec(opt, gridProbeRounds),
		experiments.Table1Spec(opt, gridLineWords, gridTableRounds),
		experiments.RecoverySpec(rec),
	}
}

// platformSpecs is the Table II race plus budget-capped first-round
// attacks through soc.PlatformChannel on both platform models.
func platformSpecs(seed uint64, raceTrials, effortTrials int) []campaign.Spec {
	return []campaign.Spec{
		experiments.Table2Spec(experiments.Options{Seed: seed, Trials: raceTrials}, platformFreqs),
		{
			Name:      "platform-effort",
			Kind:      kindPlatformEffort,
			Seed:      seed,
			Trials:    effortTrials,
			Budget:    platformBudget,
			Platforms: platformPlatform,
			MHz:       platformFreqs,
		},
	}
}

// fleetSpec is many probe-round-1 first-round jobs.
func fleetSpec(seed uint64, jobs int) campaign.Spec {
	return campaign.Spec{
		Name:        "fleet",
		Kind:        experiments.KindFirstRound,
		Seed:        seed,
		Trials:      jobs,
		Budget:      gridBudget,
		LineWords:   []int{1},
		Flush:       []bool{true},
		ProbeRounds: []int{1},
	}
}

// grid runs its specs in-process through campaign.Run, one after the
// other, with results collected in memory.
type grid struct {
	specs  func(seed uint64) []campaign.Spec
	verify func([]campaign.Result) []string
}

func (g *grid) pass(seed uint64, t *tracer) (passResult, error) {
	pr := passResult{seed: seed}
	h := sha256.New()
	for _, spec := range g.specs(seed) {
		clock := newJobClock(t, spec.NumJobs())
		out := &resultSink{jsonl: campaign.JSONLSink{W: h}}
		var sink campaign.Sink = out
		if t != nil {
			sink = &timedSink{Sink: out, clock: clock}
		}
		rep, err := campaign.Run(context.Background(), spec, clock.executor(execute),
			campaign.Options{Workers: poolWorkers, Sinks: []campaign.Sink{sink}})
		if err != nil {
			return pr, fmt.Errorf("perfbench: %s: %w", spec.Name, err)
		}
		pr.jobs += rep.Executed
		pr.failed += rep.Failed
		pr.encryptions += rep.Encryptions
		pr.durs = append(pr.durs, clock.durs...)
		pr.results = append(pr.results, out.results...)
	}
	h.Sum(pr.digest[:0])
	return pr, nil
}

func (g *grid) check(pr passResult) []string { return g.verify(pr.results) }

// resultSink keeps a pass's results and feeds their canonical JSONL to
// the pass digest.
type resultSink struct {
	jsonl   campaign.JSONLSink
	results []campaign.Result
}

func (s *resultSink) Begin(spec campaign.Spec, n int) error { return s.jsonl.Begin(spec, n) }
func (s *resultSink) Close() error                          { return s.jsonl.Close() }

func (s *resultSink) Write(r campaign.Result) error {
	s.results = append(s.results, r)
	return s.jsonl.Write(r)
}

func checkAttackGrid(rs []campaign.Result) []string {
	var bad []string
	for _, r := range rs {
		if r.Point.Kind == experiments.KindRecovery && !r.Correct {
			bad = append(bad, fmt.Sprintf("recovery job %d did not recover the key", r.Job))
		}
	}
	return bad
}

func checkPlatform(rs []campaign.Result) []string {
	var races []campaign.Result
	for _, r := range rs {
		if r.Point.Kind == experiments.KindRace {
			races = append(races, r)
		}
	}
	var bad []string
	for _, row := range experiments.Table2FromResults(platformFreqs, races) {
		for _, f := range platformFreqs {
			if got, want := row.EarliestRound[f], experiments.PaperTable2[row.Platform][f]; got != want {
				bad = append(bad, fmt.Sprintf("Table II %s at %d MHz: round %d, paper %d", row.Platform, f, got, want))
			}
		}
	}
	return bad
}

// fleet runs each pass through a fresh in-process coordinator with a
// journal directory, and one worker node with a two-job pool talking
// to it over loopback HTTP. A fresh coordinator per pass keeps memory
// flat however many passes fit in a run.
type fleet struct {
	dir  string
	jobs int
}

func (f *fleet) pass(seed uint64, t *tracer) (pr passResult, err error) {
	pr.seed = seed
	dir, err := os.MkdirTemp(f.dir, "pass-")
	if err != nil {
		return pr, err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
			err = rmErr
		}
	}()
	srv, err := campaignd.NewServer(campaignd.Options{DataDir: dir})
	if err != nil {
		return pr, err
	}
	defer srv.Close() // its journals go with dir
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return pr, err
	}
	var handler http.Handler = srv
	if t != nil {
		handler = timedHandler{h: srv, t: t}
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns http.ErrServerClosed once Close is called
	}()
	defer func() {
		hs.Close()
		<-served
	}()

	sub, err := srv.Submit(campaignd.SubmitRequest{Spec: fleetSpec(seed, f.jobs), ShardSize: fleetShard})
	if err != nil {
		return pr, err
	}
	clock := newJobClock(t, sub.Jobs)
	transport := &http.Transport{MaxConnsPerHost: poolWorkers}
	defer transport.CloseIdleConnections()
	var rt http.RoundTripper = transport
	if t != nil {
		rt = &timedTransport{rt: transport, t: t, clock: clock}
	}
	start := int64(0)
	if t != nil {
		start = t.now()
	}
	err = worker.Run(context.Background(), worker.Config{
		Server:    "http://" + ln.Addr().String(),
		ID:        "perfbench",
		Exec:      clock.executor(execute),
		Workers:   poolWorkers,
		Batch:     fleetBatch,
		Drain:     true,
		Transport: rt,
	})
	if err != nil {
		return pr, fmt.Errorf("perfbench: fleet worker: %w", err)
	}
	out, err := srv.Output(sub.ID)
	if err != nil {
		return pr, err
	}
	st, _ := srv.Status(sub.ID) // known: submitted above
	pr.jobs = sub.Jobs
	pr.failed = st.Failed + int(srv.Shed())
	for _, sh := range st.Shards {
		pr.encryptions += sh.Encryptions
	}
	pr.durs = clock.durs
	pr.digest = sha256.Sum256(out)
	if t != nil {
		end := t.now()
		pr.idleMS = float64(end-start-t.covered("campaign.exec", start)) / 1e6
		pr.mergeMS = t.lastDuration("campaignd.complete", start)
		pr.journalBytes, err = dirBytes(dir)
	}
	return pr, err
}

// check compares a pass's merged output with a single-process
// campaign.Run of the same spec, computed here, after timing, for the
// first fleetChecked passes of a window.
func (f *fleet) check(pr passResult) []string {
	if pr.index >= fleetChecked {
		return nil
	}
	var ref bytes.Buffer
	_, err := campaign.Run(context.Background(), fleetSpec(pr.seed, f.jobs), experiments.Execute, campaign.Options{
		Workers: poolWorkers, Sinks: []campaign.Sink{&campaign.JSONLSink{W: &ref}},
	})
	if err != nil {
		return []string{fmt.Sprintf("fleet reference run: %v", err)}
	}
	if sha256.Sum256(ref.Bytes()) != pr.digest {
		return []string{fmt.Sprintf("fleet pass seed %d: merged output differs from campaign.Run on the same spec", pr.seed)}
	}
	return nil
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
