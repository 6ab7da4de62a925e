package core

import (
	"errors"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/obs"
	"grinch/internal/obs/metrics"
	"grinch/internal/probe"
)

// Config tunes the attack.
type Config struct {
	// MaxObservationsPerTarget caps the encryptions spent on one
	// (segment, hypothesis) elimination before giving up. Default 1<<20
	// — high enough that TotalBudget, not this cap, normally decides
	// when a saturated channel is abandoned (an 8-word line needs ~33k
	// observations per segment at the cleanest probing round).
	MaxObservationsPerTarget uint64
	// MinObservations is the floor before convergence is accepted;
	// guards against an early accidental single candidate under
	// non-strict thresholds. Default 4.
	MinObservations uint64
	// Threshold is the appearance ratio a line needs to stay candidate
	// (1 = strict intersection, the paper's noise-free setting).
	// Default 1.
	Threshold float64
	// TotalBudget aborts the attack once the channel has performed this
	// many encryptions (0 = unlimited). The paper drops experiments
	// past 1M encryptions as impractical.
	TotalBudget uint64
	// Seed drives plaintext randomization.
	Seed uint64
	// Progress, when set, receives one event per finished segment
	// elimination (CLI verbose output).
	Progress ProgressFunc
	// Tracer, when set, receives the attack's internal trajectory as
	// typed events (internal/obs): one probe_observation plus one
	// candidate_update per encryption and one segment_recovered per
	// converged elimination. Nil (the default) disables tracing; the
	// hot path then pays a single nil check per observation.
	Tracer obs.Tracer
	// Metrics, when set, receives quantitative rollups (internal/obs/
	// metrics): per-observation and per-encryption counters, segment
	// outcome counters, and candidate-set shrinkage histograms, labeled
	// by cipher. Nil (the default) disables metering at the same cost
	// model as the nil tracer — one nil-check branch per emission.
	Metrics *metrics.Registry
	// Retry bounds the handling of transient channel failures (errors
	// exposing a Transient() bool method, e.g. faults.TransientError,
	// surfaced through probe.FallibleChannel). The zero policy disables
	// retries: the first channel error aborts the target.
	Retry RetryPolicy
	// Quarantine discards degenerate observations — an empty or
	// all-lines set under a fully-examined probe mask — before they
	// reach the eliminator. An empty set (a dropped probe window) would
	// otherwise eliminate every candidate under strict intersection;
	// an all-lines set carries no index information but still inflates
	// every line's presence ratio. Quarantined observations consume
	// budget (the victim encrypted) but not elimination statistics.
	Quarantine bool
	// MaxRestarts is how many times a direct (hypothesis-free) target
	// elimination may restart after exhausting its candidate set under
	// noise. Each restart discards the poisoned statistics and relaxes
	// the survival threshold by RestartRelax (tolerating more false
	// absences). Restarts never apply to hypothesis-testing
	// eliminations, where exhaustion is the signal of a wrong parent
	// hypothesis. 0 disables restarts.
	MaxRestarts int
	// RestartRelax is the multiplicative threshold relaxation per
	// restart (default 0.9, floored at 0.5). A relaxed threshold below
	// 1 also raises the observation floor to relaxedMinObservations so
	// ratio decisions have statistical backing.
	RestartRelax float64
	// Batch selects the batched attack pipeline (BatchAuto, the
	// default, engages it whenever the channel implements
	// probe.BatchChannel; BatchOff forces the scalar reference path).
	// The two paths produce byte-identical observations, traces and
	// metrics — batching is purely a throughput optimization.
	Batch BatchMode
	// SimDeadlinePS aborts the attack once its simulated clock — the
	// accrued retry backoff plus the channel's own virtual time when
	// the channel exposes SimPS() uint64 — reaches this many
	// picoseconds. 0 disables the deadline. Like TotalBudget this is a
	// deterministic bound: it never reads the wall clock.
	SimDeadlinePS uint64
}

// RetryPolicy bounds transient-channel-failure retries. Backoff is
// charged to the attacker's simulated clock only — deterministic, no
// sleeping — so retried runs stay byte-reproducible.
type RetryPolicy struct {
	// MaxAttempts is the retry cap per observation; 0 disables
	// retrying (the first failure aborts the target).
	MaxAttempts int
	// BackoffPS is the simulated backoff before retry n:
	// BackoffPS << min(n-1, 10) picoseconds (exponential, capped at
	// 1024× so a long retry chain cannot overflow the virtual clock).
	BackoffPS uint64
}

// backoff returns the simulated wait charged before the attempt-th
// retry (1-based).
func (p RetryPolicy) backoff(attempt int) uint64 {
	return p.BackoffPS << min(attempt-1, 10)
}

// isTransient reports whether err marks a retryable channel failure.
// The check is duck-typed (any error exposing Transient() bool) so the
// attack core does not depend on the fault injector package.
func isTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// relaxedMinObservations is the observation floor enforced once a
// restart relaxes the threshold below 1: ratio-based exhaustion and
// convergence decisions are meaningless without a statistical sample
// (cmd/grinch applies the same floor for -threshold < 1).
const relaxedMinObservations = 48

// relaxThreshold applies one restart's relaxation, floored at 0.5 —
// below that a line present in half the observations would survive,
// and the elimination no longer distinguishes signal from coin flips.
func relaxThreshold(t, relax float64) float64 {
	return max(t*relax, 0.5)
}

// confidence scores a converged elimination by the separation between
// the survivor's presence ratio and the strongest eliminated
// competitor's: 1 means the survivor appeared in every observation
// while every other line vanished; near 0 means the runner-up barely
// lost.
func confidence(elim *Eliminator, line, lines int) float64 {
	return max(elim.PresenceRatio(line)-runnerUp(elim, line, lines), 0)
}

// runnerUp returns the highest presence ratio among the lines other
// than line.
func runnerUp(elim *Eliminator, line, lines int) float64 {
	var next float64
	for l := 0; l < lines; l++ {
		if l == line {
			continue
		}
		if p := elim.PresenceRatio(l); p > next {
			next = p
		}
	}
	return next
}

// ProgressFunc observes attack progress: one call per segment whose
// elimination finished, successful or not.
type ProgressFunc func(cipher string, round, segment int, converged bool, line int, observations uint64)

func (c Config) withDefaults() Config {
	if c.MaxObservationsPerTarget == 0 {
		c.MaxObservationsPerTarget = 1 << 20
	}
	if c.MinObservations == 0 {
		c.MinObservations = 4
	}
	if c.Threshold == 0 {
		c.Threshold = 1
	}
	if c.RestartRelax == 0 {
		c.RestartRelax = 0.9
	}
	return c
}

// ErrBudgetExceeded aborts an attack that passed Config.TotalBudget.
var ErrBudgetExceeded = errors.New("core: encryption budget exceeded")

// ErrNoConvergence marks a target whose candidate set never reached a
// single line (saturated observation channel).
var ErrNoConvergence = errors.New("core: candidate elimination did not converge")

// ErrSimDeadline aborts an attack whose simulated clock (channel
// virtual time plus accrued retry backoff) passed Config.SimDeadlinePS.
var ErrSimDeadline = errors.New("core: simulated deadline exceeded")

// gift64 is the GIFT-64 descriptor: the paper's victim, and the only
// cipher with a batched observation pipeline (gift.Batch64). Round t
// consumes master-key limbs k_{2t-1} and k_{2t-2}, so round keys 1..4
// make up the key; a wide line adds one disambiguation pass.
var gift64 = &cipher[uint64, gift.RoundKey64, TargetSpec, *TargetSpec]{
	name:        "GIFT-64",
	segments:    gift.Segments64,
	rounds:      gift.Rounds64,
	keyRounds:   4,
	maxPasses:   8,
	target:      func(t, g int) *TargetSpec { return &target64Specs[t-1][g] },
	roundKey:    roundKeyFromPairs,
	hypotheses:  true,
	batchNext:   batchNext,
	batchSettle: batchSettle,
}

// Attacker drives the GRINCH attack over a GIFT-64 observation channel.
type Attacker struct {
	engine[uint64, gift.RoundKey64, TargetSpec, *TargetSpec]
	// spec holds AttackTarget's argument: the engine addresses
	// specifications by pointer, and reusing one allocation keeps
	// AttackTarget from copying each caller's spec to the heap.
	spec *TargetSpec
}

// NewAttacker builds an attacker. The channel's line count must divide
// the 16-entry table; a single-line table (16 entries per line) carries
// no index information and is rejected — that is exactly the paper's
// first countermeasure.
func NewAttacker(ch probe.Channel, cfg Config) (*Attacker, error) {
	a := new(Attacker)
	if err := a.init(gift64, ch, cfg); err != nil {
		return nil, err
	}
	if a.cfg.Batch == BatchAuto {
		a.batchCh, _ = supportsBatch(ch)
	}
	return a, nil
}

// TargetOutcome is the result of attacking one GIFT-64 segment under
// one crafting hypothesis.
type TargetOutcome = Outcome[TargetSpec]

// AttackTarget runs paper Steps 1-4 for one target: craft plaintexts,
// collect probes, eliminate candidates, and reverse-engineer the key-bit
// candidates from the surviving line. rks supplies the round keys used
// for crafting (empty for Round == 1); hypothesized bits may be wrong,
// in which case the elimination exhausts (or converges infeasibly) and
// the outcome reports it.
func (a *Attacker) AttackTarget(spec TargetSpec, rks []gift.RoundKey64) TargetOutcome {
	if a.spec == nil {
		a.spec = new(TargetSpec)
	}
	*a.spec = spec
	return a.attackTarget(a.spec, rks, false)
}

// worstPinShare is the largest fraction of crafted inputs for which a
// wrongly-hypothesized parent still yields the pinned output bit: over
// all output bits j and input differences e ≠ 0, the share of x in
// {SBox[x] bit j = 1} with SBox[x⊕e] bit j = 1. It bounds how much
// residual signal a wrong hypothesis can leave on the expected line, and
// therefore how slowly a fake survivor can die.
var worstPinShare = computeWorstPinShare()

func computeWorstPinShare() float64 {
	best := 0
	for j := 0; j < 4; j++ {
		list := sboxBitList(j)
		for e := uint8(1); e < 16; e++ {
			hits := 0
			for _, x := range list {
				if gift.SBox[x^e]>>j&1 == 1 {
					hits++
				}
			}
			if hits > best && hits < len(list) {
				best = hits
			}
		}
	}
	return float64(best) / 8
}

// RoundOutcome is the result of attacking all 16 segments of one round
// key.
type RoundOutcome struct {
	Round int
	// Cands[g] lists candidate (v | u<<1) pairs for segment g of round
	// key Round. Single-entry lists mean the segment is resolved.
	Cands [16][]uint8
	// ConfirmedPrev holds the resolved pair per segment of round key
	// Round-1, when this pass disambiguated a pending previous round
	// (entries are 0..3; only meaningful when PrevResolved is true).
	ConfirmedPrev [16]uint8
	PrevResolved  bool
	// Encryptions is the channel usage of this pass alone.
	Encryptions uint64
}

// Unique reports whether every segment resolved to a single key-bit
// pair, and returns the round key if so.
func (r RoundOutcome) Unique() (gift.RoundKey64, bool) {
	return gift64.unique(r.Round, r.Cands[:])
}

// roundKeyFromPairs assembles a round key from per-segment (v|u<<1)
// pairs.
func roundKeyFromPairs(round int, pairs [maxSegments]uint8) gift.RoundKey64 {
	v, u := packPairs[uint16](pairs[:gift.Segments64])
	return gift.RoundKey64{U: u, V: v, Const: gift.RoundConstants[round-1]}
}

// packPairs gathers per-segment (v|u<<1) pairs into a round key's V and
// U words, segment g at bit g.
func packPairs[W uint16 | uint32](pairs []uint8) (v, u W) {
	for g, p := range pairs {
		v |= W(p&1) << g
		u |= W(p>>1&1) << g
	}
	return v, u
}

// AttackRound attacks round key t across all 16 segments (paper Step 5
// iterates this over rounds). resolved must hold the fully-recovered
// round keys 1..t-2 (or 1..t-1 when prevCands is nil); prevCands, when
// non-nil, holds the still-ambiguous candidate pairs for round key t-1
// left over from the previous pass under a wide cache line. The pass
// then both recovers round-t candidates and disambiguates round t-1:
// wrong parent hypotheses destroy the crafted pinning, so their
// eliminations exhaust instead of converging (paper §III-D, "assume all
// possibilities").
func (a *Attacker) AttackRound(t int, resolved []gift.RoundKey64, prevCands *[16][]uint8) (RoundOutcome, error) {
	out := RoundOutcome{Round: t}
	var prev [][]uint8
	if prevCands != nil {
		prev = prevCands[:]
	}
	var err error
	out.Encryptions, out.PrevResolved, err = a.attackRound(t, resolved, prev, out.Cands[:], out.ConfirmedPrev[:])
	return out, err
}

// KeyResult is a completed key recovery.
type KeyResult struct {
	// Key is the recovered 128-bit master key.
	Key bitutil.Word128
	// RoundKeys are the four recovered round keys (rounds 1..4), which
	// together contain every master-key bit exactly once.
	RoundKeys [4]gift.RoundKey64
	// Encryptions is the total victim encryptions consumed (the paper's
	// headline metric: < 400 under the best probing conditions).
	Encryptions uint64
	// RoundsAttacked is how many round passes ran (4 for 1-word lines,
	// 5 when wide lines forced a disambiguation pass).
	RoundsAttacked int
}

// RecoverKey runs the full GRINCH attack: it attacks rounds 1..4 (plus a
// fifth disambiguation pass when the cache line hides index bits) and
// reassembles the 128-bit master key from the four recovered round keys.
func (a *Attacker) RecoverKey() (KeyResult, error) {
	rec, err := a.recover()
	return keyResult(rec, err), err
}

// RecoverKeyGraceful runs the full attack but degrades failures into a
// structured PartialResult instead of an error: every segment of the
// failing round pass reports its own status (converged line,
// observations, restarts, retries, confidence), segments never reached
// are padded as unattempted, and Reason classifies why the attack
// stopped. A nil PartialResult means full recovery and the KeyResult
// is complete.
func (a *Attacker) RecoverKeyGraceful() (KeyResult, *PartialResult) {
	rec, err := a.recover()
	return keyResult(rec, err), a.partial(rec, err)
}

// keyResult assembles a recovery's KeyResult (the zero result when it
// failed).
func keyResult(rec recovery[gift.RoundKey64], err error) KeyResult {
	var res KeyResult
	if err != nil {
		return res
	}
	copy(res.RoundKeys[:], rec.roundKeys)
	res.Key = AssembleKey(res.RoundKeys)
	res.Encryptions = rec.encryptions
	res.RoundsAttacked = rec.passes
	return res
}

// AssembleKey rebuilds the master key from the first four round keys:
// round t consumes limbs k_{2t-1} (U) and k_{2t-2} (V) of the original
// key state (see gift.ExpandKey64).
func AssembleKey(rks [4]gift.RoundKey64) bitutil.Word128 {
	var key bitutil.Word128
	for t, rk := range rks {
		key = key.SetWord16(uint(2*t), rk.V)
		key = key.SetWord16(uint(2*t+1), rk.U)
	}
	return key
}

// Verify checks a recovered key against one known plaintext/ciphertext
// pair.
func Verify(key bitutil.Word128, pt, ct uint64) bool {
	return gift.NewCipher64FromWord(key).EncryptBlock(pt) == ct
}
