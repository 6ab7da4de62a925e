package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/core"
	"grinch/internal/faults"
	"grinch/internal/obs"
	"grinch/internal/obs/metrics"
	"grinch/internal/oracle"
	"grinch/internal/present"
	"grinch/internal/probe"
)

// attackGoldenDigest pins every attacker observable over the runs in
// TestAttackGoldenDigest: recovered keys, encryption counts, rounds
// attacked, error text, partial results, trace events, progress calls
// and the Prometheus exposition, for GIFT-64, GIFT-128 and PRESENT-80.
// It was recorded while each cipher still had its own attacker; any
// change to it is a change in what an attack reports.
const attackGoldenDigest = "c0de448162927e6685146cee49d07b9b2974c7aee703a0420600c7de05ccf06b"

// hashTracer streams every event into the digest as it is emitted.
type hashTracer struct{ h hash.Hash }

func (t hashTracer) Emit(e obs.Event) { fmt.Fprintf(t.h, "%+v\n", e) }

// digestRun hashes one attack run's label, the run's own report (via
// body) and the metrics registry it fed.
func digestRun(t *testing.T, h hash.Hash, label string, body func(cfg core.Config) string, cfg core.Config) {
	t.Helper()
	reg := metrics.New()
	cfg.Metrics = reg
	fmt.Fprintf(h, "== %s\n%s\n", label, body(cfg))
	if err := metrics.WriteProm(h, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

func TestAttackGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-key recoveries across three ciphers")
	}
	h := sha256.New()
	tr := hashTracer{h}
	key := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	progress := func(cipher string, round, segment int, converged bool, line int, observations uint64) {
		fmt.Fprintf(h, "progress %s %d %d %v %d %d\n", cipher, round, segment, converged, line, observations)
	}
	// The first plan is survivable with retries and quarantine; the
	// second's false-absence bursts exhaust strict eliminations and force
	// restarts.
	faultPlans := []faults.Plan{
		{Name: "transient-drop", Seed: 9, Faults: []faults.Fault{
			{Kind: faults.KindTransient, Probability: 0.04},
			{Kind: faults.KindDrop, Start: 30, Probability: 0.05},
		}},
		{Name: "burst", Seed: 10, Faults: []faults.Fault{
			{Kind: faults.KindTransient, Probability: 0.04},
			{Kind: faults.KindBurst, Start: 3, Length: 1, Period: 97, FalseAbsence: 0.9},
		}},
	}
	robust := core.Config{
		Retry:       core.RetryPolicy{MaxAttempts: 3, BackoffPS: 500},
		Quarantine:  true,
		MaxRestarts: 2,
	}

	gift64 := func(ch probe.Channel, graceful bool) func(core.Config) string {
		return func(cfg core.Config) string {
			a, err := core.NewAttacker(ch, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if graceful {
				res, partial := a.RecoverKeyGraceful()
				return fmt.Sprintf("%+v partial=%+v enc=%d sim=%d", res, partial, a.Encryptions(), a.SimPS())
			}
			res, err := a.RecoverKey()
			return fmt.Sprintf("%+v err=%v enc=%d sim=%d", res, err, a.Encryptions(), a.SimPS())
		}
	}
	newOracle := func(lw int) *oracle.Oracle {
		o, err := oracle.New(key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: lw})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}

	// GIFT-64 on both pipelines across every line width: 2- and 4-word
	// lines take a hypothesis pass, the 8-word channel saturates and
	// aborts on its budget.
	for _, mode := range []core.BatchMode{core.BatchAuto, core.BatchOff} {
		for _, lw := range []int{1, 2, 4, 8} {
			cfg := core.Config{Seed: 11, Batch: mode, Tracer: tr, Progress: progress}
			if lw == 8 {
				cfg.TotalBudget = 20_000
			}
			digestRun(t, h, fmt.Sprintf("gift64 mode=%d lw=%d", mode, lw), gift64(newOracle(lw), lw == 8), cfg)
		}
	}

	// GIFT-64 through the fault plans with the robustness stack engaged.
	for _, plan := range faultPlans {
		for _, lw := range []int{1, 2} {
			in := faults.NewInjector(newOracle(lw), plan, 3)
			in.SetTracer(tr)
			cfg := robust
			cfg.Seed, cfg.Tracer, cfg.Progress = 12, tr, progress
			digestRun(t, h, fmt.Sprintf("gift64 %s lw=%d", plan.Name, lw), gift64(in, true), cfg)
		}
	}

	gift128 := func(ch core.Channel128, graceful bool) func(core.Config) string {
		return func(cfg core.Config) string {
			a, err := core.NewAttacker128(ch, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if graceful {
				res, partial := a.RecoverKey128Graceful()
				return fmt.Sprintf("%+v partial=%+v enc=%d sim=%d", res, partial, a.Encryptions(), a.SimPS())
			}
			res, err := a.RecoverKey128()
			return fmt.Sprintf("%+v err=%v enc=%d sim=%d", res, err, a.Encryptions(), a.SimPS())
		}
	}
	newOracle128 := func(lw int) *oracle.Oracle128 {
		o, err := oracle.New128(key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: lw})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}

	// GIFT-128: clean 1- and 2-word lines, a budget abort through both
	// entry points, and both fault plans.
	for _, lw := range []int{1, 2} {
		digestRun(t, h, fmt.Sprintf("gift128 lw=%d", lw), gift128(newOracle128(lw), false), core.Config{Seed: 21, Tracer: tr})
	}
	for _, graceful := range []bool{false, true} {
		cfg := core.Config{Seed: 22, Tracer: tr, TotalBudget: 300}
		digestRun(t, h, fmt.Sprintf("gift128 budget graceful=%v", graceful), gift128(newOracle128(1), graceful), cfg)
	}
	for _, plan := range faultPlans {
		in := faults.NewInjector128(newOracle128(1), plan, 4)
		in.SetTracer(tr)
		cfg := robust
		cfg.Seed, cfg.Tracer = 23, tr
		digestRun(t, h, "gift128 "+plan.Name, gift128(in, true), cfg)
	}

	// PRESENT-80: full recovery at 1-word lines, then the wide-line
	// refusal followed by a first-round pass on the same channel.
	var pkey [10]byte
	for i := range pkey {
		pkey[i] = byte(0x3c + 17*i)
	}
	newOracleP := func(lw int) *oracle.OracleP {
		o, err := oracle.NewPresent(present.NewCipher80(pkey), oracle.Config{ProbeRound: 1, Flush: true, LineWords: lw})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	for _, lw := range []int{1, 2} {
		ch := newOracleP(lw)
		digestRun(t, h, fmt.Sprintf("present lw=%d", lw), func(cfg core.Config) string {
			a, err := core.NewAttackerP(ch, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.RecoverKey80()
			s := fmt.Sprintf("%+v err=%v enc=%d", res, err, a.Encryptions())
			if lw > 1 {
				out, err := a.AttackRoundP(1, nil, nil)
				s += fmt.Sprintf(" round1=%+v err=%v", out, err)
			}
			return s
		}, core.Config{Seed: 31})
	}

	got := hex.EncodeToString(h.Sum(nil))
	if got != attackGoldenDigest {
		t.Fatalf("attack digest %s, want %s", got, attackGoldenDigest)
	}
}
