package core

import (
	"errors"
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/obs"
	"grinch/internal/present"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

// cipherCase runs one cipher's first-round pass under cfg and returns
// the per-segment candidates it found.
type cipherCase struct {
	name     string
	segments int
	round1   func(t *testing.T, cfg Config) ([][]uint8, error)
}

func cipherCases() []cipherCase {
	key := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	return []cipherCase{
		{"GIFT-64", gift.Segments64, func(t *testing.T, cfg Config) ([][]uint8, error) {
			out, err := newAttacker(t, cleanChannel(t, key, 1), cfg).AttackRound(1, nil, nil)
			return out.Cands[:], err
		}},
		{"GIFT-128", gift.Segments128, func(t *testing.T, cfg Config) ([][]uint8, error) {
			out, err := newAttacker128(t, cleanChannel128(t, key, 1), cfg).AttackRound128(1, nil, nil)
			return out.Cands[:], err
		}},
		{"PRESENT", present.Segments, func(t *testing.T, cfg Config) ([][]uint8, error) {
			a, err := NewAttackerP(presentChannel(t, present.NewCipher80(presentKey(rng.New(5))), 1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			out, err := a.AttackRoundP(1, nil, nil)
			return out.Cands[:], err
		}},
	}
}

// TestEveryCipherReportsProgressAndTrace: the engine reports the same
// telemetry for every cipher — one Progress call and one
// segment_recovered event per converged segment, labelled with the
// cipher.
func TestEveryCipherReportsProgressAndTrace(t *testing.T) {
	for _, c := range cipherCases() {
		t.Run(c.name, func(t *testing.T) {
			var buf obs.Buffer
			progress := make([]int, c.segments)
			cfg := Config{Seed: 7, Tracer: &buf, Progress: func(cipher string, round, segment int, converged bool, line int, observations uint64) {
				if cipher != c.name || round != 1 || !converged {
					t.Errorf("progress(%q, %d, %d, %v)", cipher, round, segment, converged)
				}
				progress[segment]++
			}}
			cands, err := c.round1(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recovered := make([]int, c.segments)
			for _, e := range buf.Events {
				if e.Cipher != c.name {
					t.Fatalf("event %+v labelled for another cipher", e)
				}
				if e.Kind == obs.KindSegmentRecovered {
					recovered[e.Segment]++
				}
			}
			for g := range cands {
				if len(cands[g]) == 0 || progress[g] != 1 || recovered[g] != 1 {
					t.Errorf("segment %d: %d candidates, %d progress calls, %d segment_recovered events; want ≥1, 1, 1",
						g, len(cands[g]), progress[g], recovered[g])
				}
			}
		})
	}
}

// TestPresentRobustnessStack: PRESENT runs on the same engine as GIFT,
// so transient failures are retried, dropped windows quarantined and
// retry storms bounded by the simulated deadline.
func TestPresentRobustnessStack(t *testing.T) {
	newChannel := func() probe.Channel {
		return presentChannel(t, present.NewCipher80(presentKey(rng.New(6))), 1)
	}
	run := func(ch probe.Channel, cfg Config) (KeyResultP, error) {
		a, err := NewAttackerP(ch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a.RecoverKey80()
	}
	want, err := run(newChannel(), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	flaky := func() probe.Channel { return &flakyChannel{ch: newChannel(), failEvery: 5} }
	if _, err := run(flaky(), Config{Seed: 1}); err == nil || !isTransient(err) {
		t.Fatalf("without retries: err = %v, want a transient channel failure", err)
	}
	if res, err := run(flaky(), Config{Seed: 1, Retry: RetryPolicy{MaxAttempts: 2}}); err != nil || res.Key != want.Key {
		t.Fatalf("with retries: key %x, err %v; want %x", res.Key, err, want.Key)
	}

	drop := func() probe.Channel { return &degradeChannel{ch: newChannel(), k: 7, set: 0} }
	if _, err := run(drop(), Config{Seed: 1}); err == nil {
		t.Fatal("dropped windows did not poison strict intersection without quarantine")
	}
	if res, err := run(drop(), Config{Seed: 1, Quarantine: true}); err != nil || res.Key != want.Key {
		t.Fatalf("with quarantine: key %x, err %v; want %x", res.Key, err, want.Key)
	}

	storm := &flakyChannel{ch: newChannel(), failEvery: 1}
	_, err = run(storm, Config{Seed: 1, Retry: RetryPolicy{MaxAttempts: 1 << 20, BackoffPS: 1000}, SimDeadlinePS: 10_000})
	if !errors.Is(err, ErrSimDeadline) || storm.calls > 8 {
		t.Fatalf("err = %v after %d collections, want ErrSimDeadline within 8", err, storm.calls)
	}
}

// TestRoundPassRejectsBadRounds: a round outside 1..Rounds, or a
// hypothesis pass at round 1 (there is no round 0 to disambiguate), is
// an error for every cipher rather than a panic.
func TestRoundPassRejectsBadRounds(t *testing.T) {
	key := bitutil.Word128{Lo: 11, Hi: 12}
	a := newAttacker(t, cleanChannel(t, key, 2), Config{Seed: 1})
	rks64 := gift.ExpandKey64(key)
	// Ambiguous previous-round candidates, as a wide line leaves them.
	var prev16 [16][]uint8
	for g := range prev16 {
		prev16[g] = []uint8{0, 1}
	}
	a128 := newAttacker128(t, cleanChannel128(t, key, 4), Config{Seed: 1})
	rks128 := gift.ExpandKey128(key)
	var prev32 [32][]uint8
	for g := range prev32 {
		prev32[g] = []uint8{0, 2}
	}
	c := present.NewCipher80(presentKey(rng.New(8)))
	ap, err := NewAttackerP(presentChannel(t, c, 1), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rksP := c.RoundKeys()

	for name, call := range map[string]func() error{
		"GIFT-64 round 0":           func() error { _, err := a.AttackRound(0, nil, nil); return err },
		"GIFT-64 past last round":   func() error { _, err := a.AttackRound(gift.Rounds64+1, rks64[:], nil); return err },
		"GIFT-64 round 1 with prev": func() error { _, err := a.AttackRound(1, nil, &prev16); return err },
		"GIFT-128 round 0":          func() error { _, err := a128.AttackRound128(0, nil, nil); return err },
		"GIFT-128 past last round": func() error {
			_, err := a128.AttackRound128(gift.Rounds128+1, rks128[:], nil)
			return err
		},
		"GIFT-128 round 1 with prev": func() error { _, err := a128.AttackRound128(1, nil, &prev32); return err },
		"PRESENT round 0":            func() error { _, err := ap.AttackRoundP(0, nil, nil); return err },
		"PRESENT past last round":    func() error { _, err := ap.AttackRoundP(present.Rounds+1, rksP[:], nil); return err },
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
				}
			}()
			if err := call(); err == nil {
				t.Errorf("%s: accepted", name)
			}
		}()
	}
	if a.Encryptions() != 0 || a128.Encryptions() != 0 || ap.Encryptions() != 0 {
		t.Fatal("a rejected round pass encrypted")
	}
}

// TestAttackTargetAllocations guards the shared loop against boxing or
// copying specifications to the heap: on the batched pipeline a target
// allocates only its candidate-pair slice.
func TestAttackTargetAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled batch state at random under the race detector")
	}
	key := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	for _, lw := range []int{1, 2, 4} {
		a := newAttacker(t, cleanChannel(t, key, lw), Config{Seed: 1})
		if a.batchCh == nil {
			t.Fatalf("lineWords=%d: batch pipeline not engaged", lw)
		}
		spec := NewTarget64(1, 3)
		a.AttackTarget(spec, nil) // warm the batch pool
		allocs := testing.AllocsPerRun(50, func() {
			if o := a.AttackTarget(spec, nil); !o.Converged {
				t.Fatalf("lineWords=%d: %+v", lw, o)
			}
		})
		if allocs > 1 {
			t.Errorf("lineWords=%d: AttackTarget allocates %.1f times per call, want ≤ 1", lw, allocs)
		}
	}
}
