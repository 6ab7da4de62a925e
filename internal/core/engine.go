package core

// The elimination engine: the one implementation of the GRINCH attack
// loop that GIFT-64, GIFT-128 and PRESENT-80 share. It crafts, collects
// (with retries), quarantines, eliminates, confirms and restarts one
// target at a time; runs round passes, enumerating crafting hypotheses
// when wide lines leave round keys ambiguous; and drives full recovery,
// degrading failures into a PartialResult. Budgets, deadlines, tracing,
// metrics and progress are handled here once for every cipher.
//
// A cipher plugs in through a small descriptor (cipher) and its target
// specification type (target). Only GIFT-64 adds an observation source
// of its own: the batched pipeline in batch.go.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"grinch/internal/obs"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

// maxSegments bounds a cipher's segment count (GIFT-128 has 32).
const maxSegments = 32

// channel is probe.Channel over a cipher's plaintext type P.
type channel[P any] interface {
	Collect(pt P, targetRound int) probe.LineSet
	Lines() int
	Encryptions() uint64
}

// fallibleChannel and maskedChannel are probe.FallibleChannel's and
// probe.MaskedChannel's extra methods over P.
type fallibleChannel[P any] interface {
	CollectErr(pt P, targetRound int) (probe.LineSet, error)
}

type maskedChannel[P any] interface {
	CollectMasked(pt P, targetRound int) (set, mask probe.LineSet)
}

// target is what the engine needs from a cipher's target specification
// S. The engine holds specifications by pointer, so the per-observation
// path neither copies nor boxes one.
type target[P, K, S any] interface {
	*S
	// at returns the attacked round key and segment.
	at() (round, segment int)
	// FeasibleLines returns the lines a correctly pinned target can
	// land on.
	FeasibleLines(lineWords int) probe.LineSet
	// PairsForLine returns the candidate key values consistent with an
	// observed line: (v | u<<1) pairs for GIFT, nibbles for PRESENT.
	PairsForLine(line, lineWords int) []uint8
	// ParentSegments returns the previous round's segments feeding the
	// target, indexed by target bit position.
	ParentSegments() [4]int
	// CraftPlaintext draws one crafted plaintext, inverting the earlier
	// rounds with rks.
	CraftPlaintext(r *rng.Source, rks []K) P
}

// cipher describes a victim to the engine: exactly what differs between
// GIFT-64, GIFT-128 and PRESENT-80. P is the plaintext type, K the round
// key type and S the target specification type.
type cipher[P, K, S any, T target[P, K, S]] struct {
	// name labels metrics, trace events and partial results.
	name string
	// segments is the S-box count per round; rounds is the number of
	// round keys a target can address.
	segments, rounds int
	// keyRounds is how many round keys make up the master key;
	// maxPasses caps the round passes recovery spends on them.
	keyRounds, maxPasses int
	// target returns the specification of round key t, segment g.
	target func(t, g int) T
	// roundKey assembles round key round from one key value per
	// segment (entries past segments are zero).
	roundKey func(round int, keys [maxSegments]uint8) K
	// hypotheses reports whether a round pass may carry ambiguous
	// candidates into the next round and resolve them there.
	hypotheses bool
	// batchNext and batchSettle are the batched observation source,
	// used when the engine holds a batch channel (GIFT-64 only).
	batchNext   func(e *engine[P, K, S, T], bs *batchState, spec T, rks []K) (set, mask probe.LineSet, retries uint64, err error)
	batchSettle func(e *engine[P, K, S, T], bs *batchState, spec T)
}

// unique assembles round key round when every segment resolved to a
// single candidate.
func (c *cipher[P, K, S, T]) unique(round int, cands [][]uint8) (K, bool) {
	var keys [maxSegments]uint8
	for g, cs := range cands {
		if len(cs) != 1 {
			var zero K
			return zero, false
		}
		keys[g] = cs[0]
	}
	return c.roundKey(round, keys), true
}

// engine is the attack state for one victim: the channel, the
// configuration, the plaintext rng and the robustness bookkeeping.
type engine[P, K, S any, T target[P, K, S]] struct {
	c   *cipher[P, K, S, T]
	ch  channel[P]
	cfg Config
	rng *rng.Source
	// lineWords is how many table entries share a cache line.
	lineWords int
	// batchCh is the channel's batch entry point, non-nil only when
	// Config.Batch allows it and the channel proved batch support at
	// construction; eliminations then run the batched pipeline.
	batchCh probe.BatchChannel
	// meter holds the pre-resolved metrics instruments (zero when
	// Config.Metrics is nil).
	meter attackMeter
	// backoffPS is the simulated time charged by transient-failure
	// retries (RetryPolicy.BackoffPS accrual).
	backoffPS uint64
	// lastRound / lastStatuses record the most recent round pass's
	// per-segment outcomes, feeding the graceful PartialResult.
	lastRound    int
	lastStatuses []SegmentStatus
}

// init builds the engine in place, rejecting a channel whose line count
// cannot carry index information (see NewAttacker).
func (e *engine[P, K, S, T]) init(c *cipher[P, K, S, T], ch channel[P], cfg Config) error {
	lines := ch.Lines()
	if lines < 2 || 16%lines != 0 {
		return fmt.Errorf("core: channel exposes %d table lines; the attack needs 2..16 dividing 16", lines)
	}
	cfg = cfg.withDefaults()
	*e = engine[P, K, S, T]{
		c:         c,
		ch:        ch,
		cfg:       cfg,
		rng:       rng.New(cfg.Seed),
		lineWords: 16 / lines,
		meter:     newAttackMeter(cfg.Metrics, c.name),
	}
	return nil
}

// LineWords returns how many table entries share a cache line on this
// channel.
func (e *engine[P, K, S, T]) LineWords() int { return e.lineWords }

// Encryptions returns the channel's total encryption count.
func (e *engine[P, K, S, T]) Encryptions() uint64 { return e.ch.Encryptions() }

// overBudget reports whether the total budget is exhausted.
func (e *engine[P, K, S, T]) overBudget() bool {
	return e.cfg.TotalBudget > 0 && e.ch.Encryptions() >= e.cfg.TotalBudget
}

// SimPS returns the attack's simulated clock in picoseconds: the
// accrued retry backoff plus the channel's own virtual time when the
// channel exposes SimPS() uint64 (platform channels do).
func (e *engine[P, K, S, T]) SimPS() uint64 {
	ps := e.backoffPS
	if s, ok := e.ch.(interface{ SimPS() uint64 }); ok {
		ps += s.SimPS()
	}
	return ps
}

// overDeadline reports whether the simulated deadline has passed.
func (e *engine[P, K, S, T]) overDeadline() bool {
	return e.cfg.SimDeadlinePS > 0 && e.SimPS() >= e.cfg.SimDeadlinePS
}

// progress emits a ProgressFunc event if one is configured.
func (e *engine[P, K, S, T]) progress(round, segment int, converged bool, line int, observations uint64) {
	if e.cfg.Progress != nil {
		e.cfg.Progress(e.c.name, round, segment, converged, line, observations)
	}
}

// collectRetry performs one observation, retrying transient channel
// failures under the configured RetryPolicy. It returns the observed
// set, the mask of lines actually examined, the number of recovered
// transient failures, and the terminal error once retries are
// exhausted, the failure is not transient, or the backoff pushed the
// simulated clock past the deadline.
func (e *engine[P, K, S, T]) collectRetry(pt P, round, segment int) (set, mask probe.LineSet, retries uint64, err error) {
	full := probe.FullSet(e.ch.Lines())
	if masked, ok := e.ch.(maskedChannel[P]); ok {
		s, m := masked.CollectMasked(pt, round)
		return s, m, 0, nil
	}
	fc, ok := e.ch.(fallibleChannel[P])
	if !ok {
		return e.ch.Collect(pt, round), full, 0, nil
	}
	for attempt := 0; ; attempt++ {
		s, cerr := fc.CollectErr(pt, round)
		if cerr == nil {
			return s, full, retries, nil
		}
		if !isTransient(cerr) || attempt >= e.cfg.Retry.MaxAttempts {
			return 0, full, retries, cerr
		}
		retries++
		wait := e.cfg.Retry.backoff(attempt + 1)
		e.backoffPS += wait
		if e.cfg.Tracer != nil {
			e.trace(obs.Event{Kind: obs.KindRetry, Round: round, Segment: segment, Attempt: attempt + 1, SimPS: wait})
		}
		if e.overDeadline() {
			return 0, full, retries, ErrSimDeadline
		}
	}
}

// trace emits ev stamped with the cipher and the channel's encryption
// counter. Callers check Config.Tracer first, so an untraced run pays
// one branch per emission site and builds no events.
func (e *engine[P, K, S, T]) trace(ev obs.Event) {
	ev.Enc, ev.Cipher = e.ch.Encryptions(), e.c.name
	e.cfg.Tracer.Emit(ev)
}

// Outcome is the result of attacking one segment under one crafting
// hypothesis; S is the cipher's target specification type. Its
// SegmentStatus — converged line (-1 if not converged), observations,
// restarts, retries and confidence — is what a PartialResult reports
// for the segment.
type Outcome[S any] struct {
	SegmentStatus
	Spec S
	// Pairs lists the candidate key values consistent with Line: (v |
	// u<<1) key-bit pairs for GIFT (1, 2 or 4 entries depending on
	// line width), key nibbles for PRESENT.
	Pairs []uint8
	// Exhausted means every candidate was eliminated — the signature of
	// a wrong crafting hypothesis.
	Exhausted bool
	// Infeasible means the elimination converged on a line the pinned
	// target cannot produce: a noise line outlasted every other line by
	// chance, which also indicates a wrong hypothesis.
	Infeasible bool
	// Quarantined counts degenerate observations discarded before the
	// eliminator (Config.Quarantine).
	Quarantined uint64
	// ChannelErr is the terminal channel failure that aborted the
	// elimination: retries exhausted, a non-transient error, or
	// ErrSimDeadline. Nil otherwise.
	ChannelErr error
}

// attackTarget runs paper Steps 1-4 for one target, optionally
// confirming a convergence by persistence (see eliminate). A direct
// (hypothesis-free) target whose elimination exhausts restarts up to
// Config.MaxRestarts times with a relaxed survival threshold: under
// bursty noise a false absence on the true line poisons a strict
// intersection permanently, and the only recovery is to discard the
// statistics and tolerate more absences. Hypothesis-testing
// eliminations never restart — there, exhaustion is the signal that the
// parent hypothesis is wrong.
func (e *engine[P, K, S, T]) attackTarget(spec T, rks []K, confirm bool) Outcome[S] {
	threshold := e.cfg.Threshold
	minObs := e.cfg.MinObservations
	out := e.eliminate(spec, rks, confirm, threshold, minObs)
	for out.Exhausted && !confirm && out.ChannelErr == nil &&
		out.Restarts < e.cfg.MaxRestarts && !e.overBudget() && !e.overDeadline() {
		threshold = relaxThreshold(threshold, e.cfg.RestartRelax)
		if threshold < 1 && minObs < relaxedMinObservations {
			minObs = relaxedMinObservations
		}
		restarts := out.Restarts + 1
		e.meter.restarts.Inc()
		if e.cfg.Tracer != nil {
			e.trace(obs.Event{Kind: obs.KindTargetRestarted, Round: out.Round, Segment: out.Segment, Attempt: restarts, Threshold: threshold})
		}
		prev := out
		out = e.eliminate(spec, rks, confirm, threshold, minObs)
		out.Restarts = restarts
		out.Observations += prev.Observations
		out.Retries += prev.Retries
		out.Quarantined += prev.Quarantined
	}
	return out
}

// eliminate is one elimination pass: craft plaintexts, collect probes
// (with retries), fold observations in, and stop on convergence,
// exhaustion, infeasibility, budget, deadline, or channel failure. When
// confirm is set, a convergence must additionally persist as the sole
// candidate for an adaptively-chosen number of extra observations
// before it is believed — a noise line can survive every observation by
// chance and fake a convergence under a wrong crafting hypothesis.
func (e *engine[P, K, S, T]) eliminate(spec T, rks []K, confirm bool, threshold float64, minObs uint64) Outcome[S] {
	round, segment := spec.at()
	var elim Eliminator
	elim.Reset(e.ch.Lines(), threshold)
	feasible := spec.FeasibleLines(e.lineWords)
	full := probe.FullSet(e.ch.Lines())
	startEnc := e.ch.Encryptions()
	out := Outcome[S]{SegmentStatus: SegmentStatus{Round: round, Segment: segment, Line: -1}, Spec: *spec}
	var confirmLeft uint64
	confirming := false

	var bs *batchState
	if e.batchCh != nil {
		bs = batchStatePool.Get().(*batchState)
		bs.reset()
		defer func() {
			e.c.batchSettle(e, bs, spec)
			batchStatePool.Put(bs)
		}()
	}

	// encUpper tracks an upper bound on the channel's encryption counter
	// without the per-observation interface call behind overBudget():
	// each completed iteration consumed exactly one committed encryption
	// plus at most `retries` retried ones (channels that fail before
	// encrypting make this an overestimate, never an underestimate). The
	// authoritative counter is only consulted once the bound reaches the
	// budget, so the stopping point is identical to checking it always.
	encUpper := startEnc
	budget := e.cfg.TotalBudget

	// tries bounds loop iterations rather than eliminator observations:
	// quarantined observations consume budget (the victim encrypted)
	// without advancing the eliminator, and must not loop forever.
	for tries := uint64(0); tries < e.cfg.MaxObservationsPerTarget &&
		(budget == 0 || encUpper < budget || !e.overBudget()); tries++ {
		if e.overDeadline() {
			out.ChannelErr = ErrSimDeadline
			break
		}
		var set, mask probe.LineSet
		var retries uint64
		var err error
		if bs != nil {
			set, mask, retries, err = e.c.batchNext(e, bs, spec, rks)
		} else {
			set, mask, retries, err = e.collectRetry(spec.CraftPlaintext(e.rng, rks), round, segment)
		}
		out.Retries += retries
		encUpper += 1 + retries
		if err != nil {
			out.ChannelErr = err
			break
		}
		// Quarantine a fully-masked observation that carries no usable
		// elimination information: empty (a dropped probe window —
		// destructive under strict intersection) or all-lines
		// (uninformative, inflates every presence ratio).
		if e.cfg.Quarantine && mask == full && (set == 0 || set == mask) {
			out.Quarantined++
			continue
		}
		elim.ObserveMasked(set, mask)
		if e.cfg.Tracer != nil {
			// The raw probe observation and the candidate state it
			// produced.
			e.trace(obs.Event{Kind: obs.KindProbeObservation, Round: round, Segment: segment, Lines: uint64(set)})
			cands := elim.Candidates()
			e.trace(obs.Event{Kind: obs.KindCandidateUpdate, Round: round, Segment: segment,
				Lines: uint64(cands), Survivors: cands.Count(), EntropyBits: obs.EntropyBits(cands.Count()),
				Observations: elim.Observations()})
		}

		// Under strict intersection an empty candidate set is
		// definitive at any point; with a tolerant threshold it is only
		// meaningful once enough observations have accumulated.
		if elim.Exhausted() && (threshold == 1 || elim.Observations() >= minObs) {
			out.Exhausted = true
			break
		}
		line, ok := elim.Converged(minObs)
		if !ok {
			confirming = false
			continue
		}
		if !feasible.Contains(line) {
			out.Infeasible = true
			break
		}
		if confirm && !confirming {
			confirming = true
			confirmLeft = e.confirmSpan(&elim, line)
		}
		if confirmLeft == 0 {
			out.Line = line
			out.Converged = true
			break
		}
		confirmLeft--
	}
	if out.Converged {
		out.Pairs = spec.PairsForLine(out.Line, e.lineWords)
		out.Confidence = confidence(&elim, out.Line, e.ch.Lines())
		if e.cfg.Tracer != nil {
			e.trace(obs.Event{Kind: obs.KindSegmentRecovered, Round: round, Segment: segment, Line: out.Line, Observations: elim.Observations()})
		}
	}
	out.Observations = elim.Observations()
	// The observation counter is flushed per target like the retry and
	// quarantine counters: one atomic add instead of one per probe.
	e.meter.observations.Add(elim.Observations())
	e.meter.retries.Add(out.Retries)
	e.meter.quarantined.Add(out.Quarantined)
	e.meter.segmentDone(elim.Observations(), uint64(elim.Candidates().Count()),
		e.ch.Encryptions()-startEnc, out.Converged, out.Exhausted, out.Infeasible)
	return out
}

// confirmSpan picks how many extra all-present observations a surviving
// line must endure before a hypothesis is accepted. Under a wrong
// hypothesis the expected line still receives signal on a worstPinShare
// fraction of encryptions and noise cover otherwise, so it dies at rate
// ≥ (1−worstPinShare)·(1−p̂) per observation, where p̂ is the noise
// presence ratio estimated from the strongest eliminated competitor.
// Demanding survival over K = log(fp)/log(1−rate) extra observations
// bounds the hypothesis false-positive rate by fp. Only GIFT confirms
// (it alone runs hypothesis passes), so the GIFT S-box's share applies.
func (e *engine[P, K, S, T]) confirmSpan(elim *Eliminator, line int) uint64 {
	pMax := min(runnerUp(elim, line, e.ch.Lines()), 0.999)
	deathRate := (1 - worstPinShare) * (1 - pMax)
	const fpRate = 1e-4
	k := uint64(math.Log(fpRate)/math.Log(1-deathRate)) + 1
	if limit := e.cfg.MaxObservationsPerTarget; k > limit {
		k = limit
	}
	return k
}

// attackRound is the round pass behind AttackRound, AttackRound128 and
// AttackRoundP (see AttackRound). It writes each segment's candidates
// into cands and, when prev holds round t-1's ambiguous candidates, the
// disambiguated values into confirmedPrev. It returns the encryptions
// the pass consumed and whether it resolved round t-1.
func (e *engine[P, K, S, T]) attackRound(t int, resolved []K, prev, cands [][]uint8, confirmedPrev []uint8) (uint64, bool, error) {
	c := e.c
	switch {
	case t < 1 || t > c.rounds:
		return 0, false, fmt.Errorf("core: %s has no round key %d (rounds 1..%d)", c.name, t, c.rounds)
	case prev != nil && !c.hypotheses:
		return 0, false, fmt.Errorf("core: %s hypothesis passes are unsupported", c.name)
	case prev != nil && t == 1:
		return 0, false, errors.New("core: round 1 has no previous round key to disambiguate")
	}
	need := t - 1
	if prev != nil {
		need = t - 2
	}
	if len(resolved) < need {
		return 0, false, fmt.Errorf("core: attacking round %d needs %d resolved round keys, have %d", t, need, len(resolved))
	}

	start := e.ch.Encryptions()
	e.lastRound = t
	e.lastStatuses = e.lastStatuses[:0]

	// confirmed[seg] holds the proven key value for segment seg of round
	// key t-1; -1 = not yet proven.
	var confirmedBuf [maxSegments]int8
	confirmed := confirmedBuf[:c.segments]
	for i := range confirmed {
		confirmed[i] = -1
	}

	// obsShift is how many low index bits the line granularity hides
	// (0 for 1-word lines).
	obsShift := bits.TrailingZeros(uint(e.lineWords))

	for g := 0; g < c.segments; g++ {
		spec := c.target(t, g)
		o := Outcome[S]{SegmentStatus: SegmentStatus{Round: t, Segment: g}}
		if prev == nil {
			// Crafting needs no hypotheses: earlier rounds are resolved
			// (or this is round 1 and sources are plaintext segments).
			o = e.attackTarget(spec, resolved[:t-1], false)
		} else {
			// Enumerate hypotheses for the parents whose wrongness is
			// observable (enum): a wrong pair on the parent feeding index
			// bit j makes that bit vary, which changes the observed line
			// only when j is above the intra-line bits.
			parents := spec.ParentSegments()
			enum := parents[obsShift:]
			options := make([][]uint8, len(enum))
			for i, seg := range enum {
				if confirmed[seg] >= 0 {
					options[i] = []uint8{uint8(confirmed[seg])}
				} else {
					options[i] = prev[seg]
				}
			}
			for _, combo := range cartesian(options) {
				pairs := baselinePairs(prev, confirmed)
				for i, seg := range enum {
					pairs[seg] = combo[i]
				}
				rks := append(append([]K{}, resolved[:t-2]...), c.roundKey(t-1, pairs))
				if o = e.attackTarget(spec, rks, true); o.Converged {
					// The first (and only) converging combo confirms the
					// enumerated parents.
					for i, seg := range enum {
						confirmed[seg] = int8(combo[i])
					}
					break
				}
				if o.ChannelErr != nil || e.overBudget() {
					break
				}
			}
		}
		e.lastStatuses = append(e.lastStatuses, o.SegmentStatus)
		switch {
		case o.Converged:
			cands[g] = o.Pairs
			e.progress(t, g, true, o.Line, o.Observations)
		case prev == nil:
			e.progress(t, g, false, o.Line, o.Observations)
			return 0, false, e.targetErr(&o)
		case o.ChannelErr != nil || e.overBudget():
			return 0, false, e.targetErr(&o)
		default:
			// Every hypothesis exhausted: the previous round's
			// candidates hold no consistent parent assignment.
			e.progress(t, g, false, -1, 0)
			return 0, false, fmt.Errorf("core: round %d segment %d: no crafting hypothesis converged (%w)", t, g, ErrNoConvergence)
		}
	}

	if prev != nil {
		for seg, v := range confirmed {
			if v < 0 {
				// Every segment feeds index bit 3 of exactly one target,
				// and bit 3 is observable for any line width up to 8
				// words — so full coverage is structural.
				return 0, false, fmt.Errorf("core: round %d left segment %d of round %d unresolved", t, seg, t-1)
			}
			confirmedPrev[seg] = uint8(v)
		}
	}
	return e.ch.Encryptions() - start, prev != nil, nil
}

// baselinePairs picks an arbitrary candidate for every segment
// (confirmed values where available): segments whose hypotheses are
// unobservable for the current target only perturb already-random
// state, so any choice works.
func baselinePairs(prev [][]uint8, confirmed []int8) [maxSegments]uint8 {
	var pairs [maxSegments]uint8
	for seg, c := range confirmed {
		if c >= 0 {
			pairs[seg] = uint8(c)
		} else if len(prev[seg]) > 0 {
			pairs[seg] = prev[seg][0]
		}
	}
	return pairs
}

// targetErr is the error of a target that did not converge.
func (e *engine[P, K, S, T]) targetErr(o *Outcome[S]) error {
	if o.ChannelErr != nil {
		return fmt.Errorf("core: round %d segment %d: %w", o.Round, o.Segment, o.ChannelErr)
	}
	if e.overBudget() {
		return ErrBudgetExceeded
	}
	return fmt.Errorf("core: round %d segment %d: %d observations, %w",
		o.Round, o.Segment, o.Observations, ErrNoConvergence)
}

// cartesian enumerates the cartesian product of the option lists.
func cartesian(options [][]uint8) [][]uint8 {
	combos := [][]uint8{nil}
	for _, opts := range options {
		var next [][]uint8
		for _, c := range combos {
			for _, o := range opts {
				nc := make([]uint8, len(c), len(c)+1)
				copy(nc, c)
				next = append(next, append(nc, o))
			}
		}
		combos = next
	}
	return combos
}

// recovery is a full key-recovery run: the resolved round keys (on
// failure, those resolved before it), the encryptions it consumed and
// the round passes it ran.
type recovery[K any] struct {
	roundKeys   []K
	encryptions uint64
	passes      int
}

// recover runs round passes until the round keys that make up the
// master key are resolved: one pass per round key, plus a
// disambiguation pass whenever a wide cache line leaves a round key
// ambiguous.
func (e *engine[P, K, S, T]) recover() (recovery[K], error) {
	c := e.c
	n := c.segments
	start := e.ch.Encryptions()
	var rec recovery[K]
	var err error
	var cands, pending [maxSegments][]uint8
	var confirmed [maxSegments]uint8
	var prev [][]uint8
	for t := 1; len(rec.roundKeys) < c.keyRounds; t++ {
		if t > c.maxPasses {
			err = fmt.Errorf("core: no resolution after %d round passes", rec.passes)
			break
		}
		rec.passes++
		if _, _, err = e.attackRound(t, rec.roundKeys, prev, cands[:n], confirmed[:n]); err != nil {
			break
		}
		if prev != nil {
			rec.roundKeys = append(rec.roundKeys, c.roundKey(t-1, confirmed))
			prev = nil
			if len(rec.roundKeys) >= c.keyRounds {
				break
			}
		}
		if rk, ok := c.unique(t, cands[:n]); ok {
			rec.roundKeys = append(rec.roundKeys, rk)
		} else {
			pending = cands
			prev = pending[:n]
		}
	}
	rec.encryptions = e.ch.Encryptions() - start
	return rec, err
}

// partial is RecoverKeyGraceful's report of a failed recovery (nil when
// it succeeded).
func (e *engine[P, K, S, T]) partial(rec recovery[K], err error) *PartialResult {
	if err == nil {
		return nil
	}
	p := &PartialResult{
		Cipher:         e.c.name,
		ResolvedRounds: len(rec.roundKeys),
		Segments:       append([]SegmentStatus(nil), e.lastStatuses...),
		Encryptions:    rec.encryptions,
		Reason:         Reason(err),
	}
	// Statuses are appended in segment order, so the pad starts where
	// they end.
	for g := len(p.Segments); g < e.c.segments; g++ {
		p.Segments = append(p.Segments, SegmentStatus{Round: e.lastRound, Segment: g, Line: -1})
	}
	return p
}
