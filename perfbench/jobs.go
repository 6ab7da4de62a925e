package main

import (
	"errors"
	"fmt"

	"grinch/internal/bitutil"
	"grinch/internal/campaign"
	"grinch/internal/core"
	"grinch/internal/experiments"
	"grinch/internal/gift"
	"grinch/internal/oracle"
	"grinch/internal/rng"
	"grinch/internal/soc"
)

// kindPlatformEffort is the benchmark's own job kind: a first-round
// attack through soc.PlatformChannel, run as experiments.PlatformEffort
// runs it. The program has no campaign kind for it.
const kindPlatformEffort = "platform-effort"

// execute is every workload's job function. Untraced, the program's
// own kinds go straight to experiments.Execute. Traced, the same jobs
// are rebuilt here from the program's public constructors so that the
// channel and platform can be wrapped; the traced and untraced passes
// must produce identical canonical results, which the benchmark checks.
func execute(job campaign.Job, jt *jobTrace) (campaign.Measurement, error) {
	if job.Point.Kind == kindPlatformEffort {
		return platformEffort(job, jt)
	}
	if jt == nil {
		return experiments.Execute(job, nil)
	}
	if !job.FaultPlan.Empty() {
		return campaign.Measurement{}, fmt.Errorf("perfbench: traced jobs carry no fault plan, job %d has one", job.Index)
	}
	switch job.Point.Kind {
	case experiments.KindFirstRound:
		return tracedFirstRound(job, jt)
	case experiments.KindRecovery:
		return tracedRecovery(job, jt)
	case experiments.KindRace:
		return tracedRace(job, jt)
	}
	return campaign.Measurement{}, fmt.Errorf("perfbench: unknown job kind %q", job.Point.Kind)
}

// attackConfig is the attack configuration experiments.Execute gives
// an unfaulted job.
func attackConfig(job campaign.Job, seed uint64) core.Config {
	cfg := core.Config{
		Seed:        seed,
		TotalBudget: job.Budget,
		Retry: core.RetryPolicy{
			MaxAttempts: job.Retry.Attempts,
			BackoffPS:   job.Retry.BackoffPS,
		},
		SimDeadlinePS: job.DeadlinePS,
	}
	if job.ScalarPath {
		cfg.Batch = core.BatchOff
	}
	return cfg
}

// oracleAttacker builds a job's victim key, oracle channel and
// attacker in the order experiments.Execute draws them, inside the
// job's setup span.
func oracleAttacker(job campaign.Job, jt *jobTrace, cfg oracle.Config) (bitutil.Word128, *oracle.Oracle, *core.Attacker, error) {
	s := jt.begin("experiments.setup")
	defer jt.end(s)
	r := rng.New(job.Seed)
	key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
	cfg.Seed = r.Uint64()
	o, err := oracle.New(key, cfg)
	if err != nil {
		return key, nil, nil, err
	}
	a, err := core.NewAttacker(wrapChannel(o, jt, "oracle"), attackConfig(job, r.Uint64()))
	return key, o, a, err
}

func tracedFirstRound(job campaign.Job, jt *jobTrace) (campaign.Measurement, error) {
	key, o, a, err := oracleAttacker(job, jt, oracle.Config{
		ProbeRound: job.Point.ProbeRound,
		Flush:      job.Point.Flush,
		LineWords:  job.Point.LineWords,
	})
	if err != nil {
		return campaign.Measurement{}, err
	}
	s := jt.begin("core.attack")
	out, err := a.AttackRound(1, nil, nil)
	jt.end(s)
	jt.encrypted(o.Encryptions())
	var m campaign.Measurement
	if err != nil {
		m.DroppedOut = true
		m.Reason = core.Reason(err)
		if errors.Is(err, core.ErrBudgetExceeded) {
			m.Encryptions = job.Budget
		} else {
			m.Encryptions = o.Encryptions()
		}
		return m, nil
	}
	checkFirstRound(jt, job, key, out)
	m.Encryptions = out.Encryptions
	return m, nil
}

func tracedRecovery(job campaign.Job, jt *jobTrace) (campaign.Measurement, error) {
	key, o, a, err := oracleAttacker(job, jt, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1})
	if err != nil {
		return campaign.Measurement{}, err
	}
	s := jt.begin("core.attack")
	out, partial := a.RecoverKeyGraceful()
	jt.end(s)
	jt.encrypted(o.Encryptions())
	var m campaign.Measurement
	if partial != nil {
		m.Encryptions = o.Encryptions()
		m.DroppedOut = true
		m.Partial = true
		m.Reason = partial.Reason
		m.ResolvedRounds = partial.ResolvedRounds
		m.SegmentsConverged = partial.Converged()
		m.Confidence = partial.Confidence()
		for _, seg := range partial.Segments {
			m.Retries += seg.Retries
		}
		return m, nil
	}
	m.Encryptions = out.Encryptions
	m.Correct = out.Key == key
	return m, nil
}

// newPlatform builds the named platform model for a job's key.
func newPlatform(name string, key bitutil.Word128, params soc.Params) (soc.Platform, error) {
	switch name {
	case "soc":
		return soc.NewSingleSoC(key, params), nil
	case "mpsoc":
		return soc.NewMPSoC(key, params), nil
	}
	return nil, fmt.Errorf("perfbench: unknown platform %q", name)
}

func tracedRace(job campaign.Job, jt *jobTrace) (campaign.Measurement, error) {
	s := jt.begin("experiments.setup")
	r := rng.New(job.Seed)
	key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
	p, err := newPlatform(job.Point.Platform, key, soc.DefaultParams(job.Point.MHz))
	jt.end(s)
	if err != nil {
		return campaign.Measurement{}, err
	}
	return campaign.Measurement{Round: wrapPlatform(p, jt).EarliestProbeRound()}, nil
}

// platformEffort is one row of experiments.PlatformEffort as a job:
// the first-round attack over a live platform model, capped by the
// job's budget. Its key and attack seed derive from the job seed.
func platformEffort(job campaign.Job, jt *jobTrace) (campaign.Measurement, error) {
	s := jt.begin("experiments.setup")
	r := rng.New(job.Seed)
	key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
	cfg := core.Config{Seed: r.Uint64(), TotalBudget: job.Budget}
	if job.Point.Platform == "mpsoc" {
		cfg.Threshold, cfg.MinObservations = 0.95, 48
	}
	p, err := newPlatform(job.Point.Platform, key, soc.DefaultParams(job.Point.MHz))
	if err != nil {
		jt.end(s)
		return campaign.Measurement{}, err
	}
	ch := &soc.PlatformChannel{P: wrapPlatform(p, jt), LineBytes: 1}
	a, err := core.NewAttacker(wrapChannel(ch, jt, "soc"), cfg)
	jt.end(s)
	if err != nil {
		return campaign.Measurement{}, err
	}
	s = jt.begin("core.attack")
	out, err := a.AttackRound(1, nil, nil)
	jt.end(s)
	jt.encrypted(ch.Encryptions())
	if err != nil {
		return campaign.Measurement{DroppedOut: true, Reason: core.Reason(err), Encryptions: ch.Encryptions()}, nil
	}
	checkFirstRound(jt, job, key, out)
	return campaign.Measurement{Encryptions: out.Encryptions}, nil
}

// checkFirstRound records a violation unless every segment's candidate
// list holds the true (v, u) key-bit pair of round key 1, and, at a
// one-word line, holds nothing else. Untraced runs skip it.
func checkFirstRound(jt *jobTrace, job campaign.Job, key bitutil.Word128, out core.RoundOutcome) {
	if jt == nil {
		return
	}
	rk := gift.ExpandKey64(key)[0]
	for g, cands := range out.Cands {
		want := uint8(rk.V>>g&1) | uint8(rk.U>>g&1)<<1
		found := false
		for _, c := range cands {
			found = found || c == want
		}
		//grinchvet:ignore secret-branch the check compares the attack's output with the victim key it was built from
		if !found || (job.Point.LineWords <= 1 && len(cands) != 1) {
			jt.violations = append(jt.violations, fmt.Sprintf(
				"job %d (%s): round-1 segment %d candidates %v, true pair %d", job.Index, job.Point, g, cands, want))
			return
		}
	}
}
