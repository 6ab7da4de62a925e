package core

import (
	"grinch/internal/bitutil"
	"grinch/internal/gift"
)

// Channel128 is the GIFT-128 observation channel, mirroring
// probe.Channel with a 128-bit plaintext.
type Channel128 = channel[bitutil.Word128]

// FallibleChannel128 mirrors probe.FallibleChannel for GIFT-128
// channels: CollectErr reports probe failures (retryable when the
// error exposes `Transient() bool`) instead of degrading them.
type FallibleChannel128 interface {
	Channel128
	fallibleChannel[bitutil.Word128]
}

// gift128 is the GIFT-128 descriptor. Each round consumes 64 key bits,
// so round keys 1 and 2 make up the key.
var gift128 = &cipher[bitutil.Word128, gift.RoundKey128, TargetSpec128, *TargetSpec128]{
	name:      "GIFT-128",
	segments:  gift.Segments128,
	rounds:    gift.Rounds128,
	keyRounds: 2,
	maxPasses: 6,
	target: func(t, g int) *TargetSpec128 {
		spec := NewTarget128(t, g)
		return &spec
	},
	roundKey:   roundKeyFromPairs128,
	hypotheses: true,
}

// Attacker128 drives the GRINCH attack against a GIFT-128 victim.
type Attacker128 struct {
	engine[bitutil.Word128, gift.RoundKey128, TargetSpec128, *TargetSpec128]
}

// NewAttacker128 builds a GIFT-128 attacker.
func NewAttacker128(ch Channel128, cfg Config) (*Attacker128, error) {
	a := new(Attacker128)
	if err := a.init(gift128, ch, cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// RoundOutcome128 mirrors RoundOutcome with 32 segments.
type RoundOutcome128 struct {
	Round         int
	Cands         [32][]uint8
	ConfirmedPrev [32]uint8
	PrevResolved  bool
	Encryptions   uint64
}

// Unique reports whether every segment resolved to a single pair.
func (r RoundOutcome128) Unique() (gift.RoundKey128, bool) {
	return gift128.unique(r.Round, r.Cands[:])
}

func roundKeyFromPairs128(round int, pairs [maxSegments]uint8) gift.RoundKey128 {
	v, u := packPairs[uint32](pairs[:])
	return gift.RoundKey128{U: u, V: v, Const: gift.RoundConstants[round-1]}
}

// AttackRound128 attacks round key t across all 32 segments, with the
// same hypothesis machinery as the GIFT-64 path.
func (a *Attacker128) AttackRound128(t int, resolved []gift.RoundKey128, prevCands *[32][]uint8) (RoundOutcome128, error) {
	out := RoundOutcome128{Round: t}
	var prev [][]uint8
	if prevCands != nil {
		prev = prevCands[:]
	}
	var err error
	out.Encryptions, out.PrevResolved, err = a.attackRound(t, resolved, prev, out.Cands[:], out.ConfirmedPrev[:])
	return out, err
}

// KeyResult128 is a completed GIFT-128 key recovery.
type KeyResult128 struct {
	Key            bitutil.Word128
	RoundKeys      [2]gift.RoundKey128
	Encryptions    uint64
	RoundsAttacked int
}

// RecoverKey128 runs the full attack: GIFT-128 consumes all 128 key
// bits in just two rounds (64 per round), so two passes suffice — three
// when wide lines force a disambiguation pass.
func (a *Attacker128) RecoverKey128() (KeyResult128, error) {
	rec, err := a.recover()
	return keyResult128(rec, err), err
}

// RecoverKey128Graceful mirrors Attacker.RecoverKeyGraceful: failures
// degrade into a structured PartialResult instead of an error. A nil
// PartialResult means full recovery.
func (a *Attacker128) RecoverKey128Graceful() (KeyResult128, *PartialResult) {
	rec, err := a.recover()
	return keyResult128(rec, err), a.partial(rec, err)
}

// keyResult128 mirrors keyResult.
func keyResult128(rec recovery[gift.RoundKey128], err error) KeyResult128 {
	var res KeyResult128
	if err != nil {
		return res
	}
	copy(res.RoundKeys[:], rec.roundKeys)
	res.Key = AssembleKey128(res.RoundKeys)
	res.Encryptions = rec.encryptions
	res.RoundsAttacked = rec.passes
	return res
}

// AssembleKey128 rebuilds the master key from the first two round keys:
// round 1 consumes U = k5‖k4 and V = k1‖k0, round 2 consumes U = k7‖k6
// and V = k3‖k2 (see gift.ExpandKey128).
func AssembleKey128(rks [2]gift.RoundKey128) bitutil.Word128 {
	var key bitutil.Word128
	key = key.SetWord16(0, uint16(rks[0].V))
	key = key.SetWord16(1, uint16(rks[0].V>>16))
	key = key.SetWord16(4, uint16(rks[0].U))
	key = key.SetWord16(5, uint16(rks[0].U>>16))
	key = key.SetWord16(2, uint16(rks[1].V))
	key = key.SetWord16(3, uint16(rks[1].V>>16))
	key = key.SetWord16(6, uint16(rks[1].U))
	key = key.SetWord16(7, uint16(rks[1].U>>16))
	return key
}

// Verify128 checks a recovered key against one known block pair.
func Verify128(key bitutil.Word128, pt, ct bitutil.Word128) bool {
	return gift.NewCipher128FromWord(key).EncryptBlock(pt) == ct
}
