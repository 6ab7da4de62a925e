package core

// GRINCH-P: the GRINCH methodology adapted to PRESENT, the cipher GIFT
// was designed to replace (paper §II). PRESENT XORs its round key into
// the whole state *before* SubCells, so a pinned S-box access leaks all
// four index bits as key bits — twice GIFT's yield per segment — and the
// crafting step is simpler (the target segment of the round input is set
// directly instead of through inverse-permuted source bits). Two
// attacked rounds expose K1 and K2, from which the 80-bit master key is
// reconstructed by inverting the key schedule (present.RecoverKey80).
//
// The comparison quantifies the paper's point from the other side:
// table-based PRESENT software is strictly easier prey for an
// access-driven attacker than GIFT, whose AddRoundKey touches only two
// bits per segment.

import (
	"fmt"

	"grinch/internal/present"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

// TargetSpecP pins one PRESENT S-box access: segment Segment of the
// round-Round input state is fixed to 0xF, so the observed index is
// 0xF ⊕ K_Round[Segment].
type TargetSpecP struct {
	Round   int
	Segment int
}

// NewTargetP builds a PRESENT target.
func NewTargetP(t, g int) TargetSpecP {
	checkTarget(t, g, present.Rounds, present.Segments)
	return TargetSpecP{Round: t, Segment: g}
}

// ExpectedIndex returns the observed index for round-key nibble val.
func (t TargetSpecP) ExpectedIndex(val uint8) uint8 {
	return pinnedValue ^ val&0xf
}

// KeyNibble reverse-engineers the round-key nibble from an observed
// index.
func (t TargetSpecP) KeyNibble(index uint8) uint8 {
	return index ^ pinnedValue
}

// NibblesForLine returns the candidate key nibbles consistent with an
// observed line under the given line width.
func (t TargetSpecP) NibblesForLine(line, lineWords int) []uint8 {
	var out []uint8
	for v := uint8(0); v < 16; v++ {
		if int(t.ExpectedIndex(v))/lineWords == line {
			out = append(out, v)
		}
	}
	return out
}

// FeasibleLines returns every line: the four pinned key bits reach all
// 16 indices.
func (t TargetSpecP) FeasibleLines(lineWords int) probe.LineSet {
	return probe.FullSet(16 / lineWords)
}

// PairsForLine is NibblesForLine under the engine's name for a
// target's key candidates.
func (t TargetSpecP) PairsForLine(line, lineWords int) []uint8 {
	return t.NibblesForLine(line, lineWords)
}

func (t *TargetSpecP) at() (round, segment int) { return t.Round, t.Segment }

// CraftState builds the round-Round input with the target segment
// pinned to 0xF and every other segment random.
func (t TargetSpecP) CraftState(r *rng.Source) uint64 {
	var state uint64
	for seg := uint(0); seg < present.Segments; seg++ {
		if int(seg) == t.Segment {
			state |= uint64(pinnedValue) << (4 * seg)
		} else {
			state |= r.Nibble() << (4 * seg)
		}
	}
	return state
}

// CraftPlaintext inverts rounds Round-1..1 with the known (or
// hypothesized) round keys.
func (t TargetSpecP) CraftPlaintext(r *rng.Source, rks []uint64) uint64 {
	return craftPlaintext(t.CraftState(r), t.Round, rks, present.PartialDecrypt)
}

// ParentSegments returns the round-(Round-1) S-boxes feeding the target
// segment's four input bits, indexed by target bit position: pinning
// s_t[g] through InvRound depends on those S-boxes' round-(Round-1) key
// nibbles.
func (t TargetSpecP) ParentSegments() [4]int {
	var out [4]int
	for j := 0; j < 4; j++ {
		out[j] = int(present.InvPerm[4*t.Segment+j]) / 4
	}
	return out
}

// present80 is the PRESENT-80 descriptor. Rounds 1 and 2 expose 64
// round-key bits each, from which the key schedule is inverted. Passes
// never carry hypotheses: see RecoverKey80.
var present80 = &cipher[uint64, uint64, TargetSpecP, *TargetSpecP]{
	name:      "PRESENT",
	segments:  present.Segments,
	rounds:    present.Rounds,
	keyRounds: 2,
	maxPasses: 2,
	target:    func(t, g int) *TargetSpecP { return &TargetSpecP{Round: t, Segment: g} },
	roundKey: func(_ int, nibbles [maxSegments]uint8) uint64 {
		var rk uint64
		for g, v := range nibbles[:present.Segments] {
			rk |= uint64(v) << (4 * g)
		}
		return rk
	},
}

// AttackerP drives GRINCH-P over a PRESENT channel. The signal round
// for round key t is round t itself (key-first ordering), so a
// channel's Collect window starts at targetRound rather than
// targetRound+1.
type AttackerP struct {
	engine[uint64, uint64, TargetSpecP, *TargetSpecP]
}

// NewAttackerP builds a PRESENT attacker.
func NewAttackerP(ch probe.Channel, cfg Config) (*AttackerP, error) {
	a := new(AttackerP)
	if err := a.init(present80, ch, cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// RoundOutcomeP is the result of attacking one PRESENT round key.
type RoundOutcomeP struct {
	Round       int
	Cands       [16][]uint8 // candidate key nibbles per segment
	Encryptions uint64
}

// Unique reports whether every segment resolved to one nibble and
// returns the 64-bit round key.
func (r RoundOutcomeP) Unique() (uint64, bool) {
	return present80.unique(r.Round, r.Cands[:])
}

// AttackRoundP attacks round key t across all 16 segments. Crafting
// for rounds ≥ 2 requires the earlier round keys to be fully resolved:
// PRESENT's deterministic S-box derivative makes per-target hypothesis
// enumeration unsound (see RecoverKey80), so — unlike the GIFT paths —
// a non-nil prevCands is refused.
func (a *AttackerP) AttackRoundP(t int, resolved []uint64, prevCands *[16][]uint8) (RoundOutcomeP, error) {
	out := RoundOutcomeP{Round: t}
	var prev [][]uint8
	if prevCands != nil {
		prev = prevCands[:]
	}
	var err error
	out.Encryptions, _, err = a.attackRound(t, resolved, prev, out.Cands[:], nil)
	return out, err
}

// KeyResultP is a completed PRESENT-80 key recovery.
type KeyResultP struct {
	Key            [10]byte
	RoundKeys      [2]uint64
	Encryptions    uint64
	RoundsAttacked int
}

// RecoverKey80 runs GRINCH-P to completion: rounds 1 and 2 expose 64
// round-key bits each, and present.RecoverKey80 inverts the key
// schedule.
//
// Wide cache lines are rejected: PRESENT's permutation routes output
// bit (p mod 4) of every S-box p into position (p mod 4) of its
// children, and the PRESENT S-box has a deterministic derivative on
// that axis — S(x)⊕S(x⊕1) always has bit 0 set — so a wrong hidden-bit
// hypothesis at a bit-0-fed target flips the pinned value *constantly*
// instead of randomizing it, and next-round elimination converges to a
// self-consistent wrong answer. Disambiguation would need round-(t+2)
// cone analysis; rather than risk a silently wrong key, the attack
// declines (an interesting structural contrast with GIFT, whose
// position-preserving permutation avoids the trap — see
// TestPresentWideLineDeterministicDerivative).
func (a *AttackerP) RecoverKey80() (KeyResultP, error) {
	var res KeyResultP
	if a.lineWords > 1 {
		return res, fmt.Errorf("core: GRINCH-P full recovery needs 1-word cache lines (got %d-word): PRESENT's deterministic S-box derivative defeats next-round disambiguation", a.lineWords)
	}
	rec, err := a.recover()
	if err != nil {
		return res, err
	}
	copy(res.RoundKeys[:], rec.roundKeys)
	res.Key = present.RecoverKey80(res.RoundKeys[0], res.RoundKeys[1])
	res.Encryptions = rec.encryptions
	res.RoundsAttacked = rec.passes
	return res, nil
}
