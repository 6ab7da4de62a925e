package core

// GIFT-128 extension of the GRINCH attack. The paper demonstrates the
// attack on GIFT-64; GIFT-128 (the variant used by most GIFT-based NIST
// candidates) has the same structure with a different AddRoundKey
// geometry — key bits land on segment bits 1 (V) and 2 (U) instead of 0
// and 1, bit 0 is key-free, and each round consumes 64 key bits, so two
// attacked rounds cover the whole 128-bit key.
//
// A notable consequence of the shifted key positions: a 2-word cache
// line hides only index bit 0, which carries no key material in
// GIFT-128, so — unlike GIFT-64 — the attack loses nothing at 2-word
// lines (TestPairsForLine128Widths documents this).

import (
	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/rng"
)

// TargetSpec128 pins one GIFT-128 S-box access. It is TargetSpec's
// geometry over GIFT-128's permutation and 32 segments, with the key
// bits on index bits 1 (V) and 2 (U); only crafting, which works on a
// 128-bit state, is its own.
type TargetSpec128 struct {
	TargetSpec
}

// NewTarget128 builds the target specification for round key t and
// segment g (0..31) of GIFT-128.
func NewTarget128(t, g int) TargetSpec128 {
	checkTarget(t, g, gift.Rounds128, gift.Segments128)
	return TargetSpec128{buildGIFTTarget(t, g, gift.InvPerm128[:], 1)}
}

// CraftState builds the round-Round S-box input state with the four
// source segments pinned and all others random.
func (t TargetSpec128) CraftState(r *rng.Source) bitutil.Word128 {
	return t.craftWide(r, gift.Segments128)
}

// CraftPlaintext inverts rounds Round-1..1 to turn the crafted state
// into a plaintext.
func (t TargetSpec128) CraftPlaintext(r *rng.Source, rks []gift.RoundKey128) bitutil.Word128 {
	return craftPlaintext(t.CraftState(r), t.Round, rks, gift.PartialDecrypt128)
}
