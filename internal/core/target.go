// Package core implements the GRINCH attack (paper §III): an
// access-driven cache attack that recovers the full 128-bit GIFT key by
// crafting plaintexts that pin one S-box index per round and segment,
// eliminating candidate indices from observed cache line sets, and
// reverse-engineering the key bits from the surviving index.
//
// The attack follows the paper's five-step methodology:
//
//  1. Generate plaintext + encrypt (Algorithms 1 and 2) — target.go
//  2. Probe the cache — delegated to a probe.Channel
//  3. Eliminate candidates — eliminate.go
//  4. Reverse-engineer key bits — TargetSpec.KeyBits
//  5. Update plaintext generation for the next round — engine.go
//
// Wide cache lines hide the low index bits (paper §III-D); the attack
// then carries up to four candidate key-bit pairs per segment into the
// next round, where wrong hypotheses destroy the pinning and are pruned
// (engine.go). The same engine attacks GIFT-128 and PRESENT-80 through
// per-cipher descriptors (attack128.go, attackpresent.go).
package core

import (
	"fmt"
	"math/bits"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

// Source describes one of the four S-box outputs of round t that feed
// the attacked segment of round t+1 (the output of paper Algorithm 1 for
// one bit).
type Source struct {
	// Segment is the segment of the round-t S-box input state that
	// produces this bit.
	Segment int
	// Bit is the output bit (0..3) of that segment's S-box that the
	// permutation routes into the target; GIFT's permutation preserves
	// the bit position within a segment, so Bit equals the target bit
	// position this source feeds.
	Bit int
	// Inputs lists the S-box inputs x for which SBox[x] has Bit set —
	// the paper's list_A/list_B of valid crafted values (8 entries).
	Inputs []uint8
}

// TargetSpec pins one S-box access: the four input bits of segment
// Segment at the input of round Round+1's SubCells are forced to 1
// before the round-Round AddRoundKey, so the observed index differs from
// 0b1111 exactly by the two round-key bits and the known round constant.
// The geometry is GIFT-64's; TargetSpec128 reuses it for GIFT-128.
type TargetSpec struct {
	// Round is the attacked round key (1-based): the crafted constraint
	// acts on the S-box accesses of round Round+1.
	Round int
	// Segment is the attacked segment g (0..15): key bits V_g and U_g
	// of round key Round are recovered.
	Segment int
	// Sources are the four round-Round S-box cells feeding the target,
	// indexed by target bit position (Sources[j] feeds index bit j).
	Sources [4]Source
	// ConstXor is the round-constant contribution to the observed
	// index (bit 3 only; bits 0..2 never carry constants in GIFT).
	ConstXor uint8
	// keyShift is the index bit AddRoundKey XORs the V key bit into; U
	// lands one bit higher. 0 for GIFT-64, 1 for GIFT-128.
	keyShift uint8

	// Crafting fast-path metadata, precomputed by compileCraft so the
	// per-plaintext hot loop is free of slice chases and pin-tracking
	// branches. craftInputs[i] packs Sources[i].Inputs as eight nibbles;
	// craftSrcShift[i] is 4*Sources[i].Segment; craftUnpinned lists the
	// shifts 4*seg of the twelve non-source segments in ascending
	// segment order (the draw order the scalar loop uses). craftFast is
	// false for hand-built specs, which take the general path.
	craftFast     bool
	craftSrcShift [4]uint8
	craftInputs   [4]uint32
	craftUnpinned [12]uint8
}

// sboxBitList returns the S-box inputs whose output has bit j set
// (paper Algorithm 1 lines 6-13, expressed directly instead of through
// Inv_SBOX).
func sboxBitList(j int) []uint8 {
	var list []uint8
	for x := uint8(0); x < 16; x++ {
		if gift.SBox[x]>>j&1 == 1 {
			list = append(list, x)
		}
	}
	return list
}

// target64Specs caches every (round, segment) specification: the specs
// are pure functions of the cipher's constants, and campaign sweeps
// request them hundreds of thousands of times. The cached Sources'
// Inputs slices are shared — TargetSpec consumers only read them.
var target64Specs = buildTarget64Specs()

func buildTarget64Specs() [gift.Rounds64][gift.Segments64]TargetSpec {
	var specs [gift.Rounds64][gift.Segments64]TargetSpec
	for t := 1; t <= gift.Rounds64; t++ {
		for g := 0; g < gift.Segments64; g++ {
			specs[t-1][g] = buildGIFTTarget(t, g, gift.InvPerm64[:], 0)
			specs[t-1][g].compileCraft()
		}
	}
	return specs
}

// NewTarget64 returns the target specification for round key t
// (1-based) and segment g of GIFT-64.
func NewTarget64(t, g int) TargetSpec {
	checkTarget(t, g, gift.Rounds64, gift.Segments64)
	return target64Specs[t-1][g]
}

// checkTarget panics unless round key t and segment g exist in a cipher
// with the given round and segment counts.
func checkTarget(t, g, rounds, segments int) {
	if t < 1 || t > rounds {
		panic(fmt.Sprintf("core: round %d out of range", t))
	}
	if g < 0 || g >= segments {
		panic(fmt.Sprintf("core: segment %d out of range", g))
	}
}

// buildGIFTTarget is paper Algorithm 1 (SET_TARGET_BITS) for either
// GIFT variant: the state positions that AddRoundKey XORs with the
// target key bits are inverse-permuted (invPerm) to locate the S-box
// output bits that must be pinned.
func buildGIFTTarget(t, g int, invPerm []uint8, keyShift uint8) TargetSpec {
	spec := TargetSpec{Round: t, Segment: g, keyShift: keyShift}
	for j := 0; j < 4; j++ {
		// State bit 4g+j of the round-(t+1) S-box input comes from
		// S-box output bit invPerm[4g+j] of round t.
		p := int(invPerm[4*g+j])
		spec.Sources[j] = Source{
			Segment: p / 4,
			Bit:     p % 4,
			Inputs:  sboxBitList(p % 4),
		}
	}
	// Round-constant contribution to the observed index: GIFT XORs a
	// fixed 1 into the state's top bit (last segment, bit 3) and
	// constant bits c_i into bits 4i+3 for i = 0..5 (segments 0..5,
	// bit 3).
	c := gift.RoundConstants[t-1]
	switch {
	case g == len(invPerm)/4-1:
		spec.ConstXor = 1 << 3
	case g < 6:
		spec.ConstXor = (c >> g & 1) << 3
	}
	return spec
}

// compileCraft fills the crafting fast-path metadata. It only succeeds
// when every source list has exactly 8 entries (every balanced S-box
// output bit does) and the four sources pin four distinct segments
// (GIFT's permutation guarantees it); otherwise craftFast stays false
// and CraftState falls back to the general loop.
func (t *TargetSpec) compileCraft() {
	var pinned uint16
	for i := range t.Sources {
		src := &t.Sources[i]
		if len(src.Inputs) != 8 {
			return
		}
		for k, x := range src.Inputs {
			t.craftInputs[i] |= uint32(x) << (4 * k)
		}
		t.craftSrcShift[i] = uint8(4 * src.Segment)
		pinned |= 1 << src.Segment
	}
	if bits.OnesCount16(pinned) != 4 {
		return
	}
	n := 0
	for seg := 0; seg < gift.Segments64; seg++ {
		if pinned&(1<<seg) == 0 {
			t.craftUnpinned[n] = uint8(4 * seg)
			n++
		}
	}
	t.craftFast = true
}

// pinnedValue is the value the four pinned bits take before AddRoundKey
// (the paper sets both target bits to 1; we pin all four source bits so
// exactly one index is activated).
const pinnedValue = 0xf

// ExpectedIndex returns the S-box index that will be observed in round
// Round+1, segment Segment, when round key Round has V bit v and U bit u
// at this segment.
func (t TargetSpec) ExpectedIndex(v, u uint8) uint8 {
	return pinnedValue ^ t.ConstXor ^ (v&1|u&1<<1)<<t.keyShift
}

// KeyBits reverse-engineers the two key bits from the observed index
// (paper Step 4: Key[i] ← ¬Index[a], adjusted for the round constant).
// v is the bit XORed at state position 4g (key bit g of the round key's
// V word) and u the bit at 4g+1 (bit g of U).
func (t TargetSpec) KeyBits(index uint8) (v, u uint8) {
	d := (index ^ pinnedValue ^ t.ConstXor) >> t.keyShift
	return d & 1, d >> 1 & 1
}

// FeasibleLines returns the table lines the pinned target can land on:
// the four possible key-bit pairs map to at most four indices, which a
// wide line collapses further. A converged line outside this set cannot
// be the target — it is a noise line that survived by chance.
func (t TargetSpec) FeasibleLines(lineWords int) probe.LineSet {
	var set probe.LineSet
	for p := uint8(0); p < 4; p++ {
		set = set.Add(int(t.ExpectedIndex(p&1, p>>1)) / lineWords)
	}
	return set
}

// PairsForLine returns the candidate (v | u<<1) key-bit pairs consistent
// with the observed table line when lineWords table entries share one
// cache line: wide lines hide the low index bits, leaving up to four
// candidates (paper §III-D).
func (t TargetSpec) PairsForLine(line, lineWords int) []uint8 {
	var pairs []uint8
	for p := uint8(0); p < 4; p++ {
		if int(t.ExpectedIndex(p&1, p>>1))/lineWords == line {
			pairs = append(pairs, p)
		}
	}
	return pairs
}

func (t *TargetSpec) at() (round, segment int) { return t.Round, t.Segment }

// CraftState builds the round-Round S-box input state (paper Algorithm
// 2, GENERATE): each source segment gets a value drawn from its valid
// list so the pinned output bit is 1; every other segment is random.
// Hand-built specs take the general loop; specs built by NewTarget64
// never do (the GIFT S-box is balanced), but the method's contract does
// not require 8-entry lists.
func (t *TargetSpec) CraftState(r *rng.Source) uint64 {
	if !t.craftFast {
		return t.craftWide(r, gift.Segments64).Lo
	}
	// Fast path over the compiled metadata: every source draw is
	// Intn(8) — and IntnPow2(3) is the same draw, same value, small
	// enough to inline — indexing a packed nibble list instead of a
	// slice, and the unpinned segments stream straight off the
	// precomputed shift list with no pin bookkeeping. With every draw
	// inlined and no call left in the body, the local generator copy
	// stays register-resident across all 16 draws of the craft.
	st := *r
	var state uint64
	for i := 0; i < 4; i++ {
		x := t.craftInputs[i] >> (4 * uint(st.IntnPow2(3))) & 0xf
		state |= uint64(x) << t.craftSrcShift[i]
	}
	u := &t.craftUnpinned
	state |= st.Nibble() << u[0]
	state |= st.Nibble() << u[1]
	state |= st.Nibble() << u[2]
	state |= st.Nibble() << u[3]
	state |= st.Nibble() << u[4]
	state |= st.Nibble() << u[5]
	state |= st.Nibble() << u[6]
	state |= st.Nibble() << u[7]
	state |= st.Nibble() << u[8]
	state |= st.Nibble() << u[9]
	state |= st.Nibble() << u[10]
	state |= st.Nibble() << u[11]
	*r = st
	return state
}

// craftWide is paper Algorithm 2 over the first segments nibbles of a
// 128-bit state (GIFT-64 uses the low half): each source segment gets a
// value drawn from its valid list, every other segment is random.
func (t *TargetSpec) craftWide(r *rng.Source, segments uint) bitutil.Word128 {
	var state bitutil.Word128
	var pinned uint32
	for i := range t.Sources {
		src := &t.Sources[i]
		x := src.Inputs[r.Intn(len(src.Inputs))]
		state = state.SetNibble(uint(src.Segment), uint64(x))
		pinned |= 1 << src.Segment
	}
	for seg := uint(0); seg < segments; seg++ {
		if pinned&(1<<seg) == 0 {
			state = state.SetNibble(seg, r.Nibble())
		}
	}
	return state
}

// CraftPlaintext turns a crafted round-Round state into the plaintext
// that produces it, by inverting rounds Round-1..1 with the (known or
// hypothesized) earlier round keys. For Round == 1 the state is the
// plaintext (paper Step 5 reduces to Step 1).
func (t TargetSpec) CraftPlaintext(r *rng.Source, rks []gift.RoundKey64) uint64 {
	return craftPlaintext(t.CraftState(r), t.Round, rks, gift.PartialDecrypt64)
}

// craftPlaintext inverts rounds round-1..1 of a crafted state with the
// cipher's partial decryption; every cipher's CraftPlaintext is this.
func craftPlaintext[P, K any](state P, round int, rks []K, decrypt func(P, []K, int) P) P {
	if round == 1 {
		return state
	}
	if len(rks) < round-1 {
		panic(fmt.Sprintf("core: crafting round %d needs %d round keys, have %d",
			round, round-1, len(rks)))
	}
	return decrypt(state, rks, round-1)
}

// ParentSegments returns the four round-(Round-1)-key segments whose key
// bits determine whether the crafted state is realized, indexed by the
// target bit position they influence. (For Round == 1 the sources are
// plaintext segments and no key is involved.)
func (t TargetSpec) ParentSegments() [4]int {
	var out [4]int
	for j, src := range t.Sources {
		out[j] = src.Segment
	}
	return out
}
