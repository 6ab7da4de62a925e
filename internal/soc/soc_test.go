package soc

import (
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/sim"
)

var testKey = bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}

func TestSingleSoCCiphertextCorrect(t *testing.T) {
	s := NewSingleSoC(testKey, DefaultParams(10))
	pt := uint64(0xfedcba9876543210)
	sess := s.RunSession(pt)
	want := gift.NewCipher64FromWord(testKey).EncryptBlock(pt)
	if sess.Ciphertext != want {
		t.Fatalf("platform ciphertext %016x, want %016x", sess.Ciphertext, want)
	}
}

// TestSingleSoCEarliestProbeRound reproduces Table II's single-SoC row:
// the first probe lands in rounds 2, 4 and 8 at 10, 25 and 50 MHz.
func TestSingleSoCEarliestProbeRound(t *testing.T) {
	want := map[uint64]int{10: 2, 25: 4, 50: 8}
	for mhz, round := range want {
		s := NewSingleSoC(testKey, DefaultParams(mhz))
		if got := s.EarliestProbeRound(); got != round {
			t.Errorf("%d MHz: earliest probe round %d, want %d", mhz, got, round)
		}
	}
}

// TestMPSoCEarliestProbeRound reproduces Table II's MPSoC row: a
// dedicated attacker tile probes during round 1 at every frequency.
func TestMPSoCEarliestProbeRound(t *testing.T) {
	for _, mhz := range []uint64{10, 25, 50} {
		m := NewMPSoC(testKey, DefaultParams(mhz))
		if got := m.EarliestProbeRound(); got != 1 {
			t.Errorf("%d MHz: earliest probe round %d, want 1", mhz, got)
		}
	}
}

func TestMPSoCCiphertextCorrect(t *testing.T) {
	m := NewMPSoC(testKey, DefaultParams(50))
	pt := uint64(0x1122334455667788)
	sess := m.RunSession(pt)
	want := gift.NewCipher64FromWord(testKey).EncryptBlock(pt)
	if sess.Ciphertext != want {
		t.Fatalf("platform ciphertext %016x, want %016x", sess.Ciphertext, want)
	}
}

func TestMPSoCRemoteAccessTime(t *testing.T) {
	// Paper §IV-B3: a remote shared-memory access "took approximately
	// 400 nanoseconds" (processor + NoC + cache response) at 50 MHz.
	m := NewMPSoC(testKey, DefaultParams(50))
	rt := m.RemoteAccessTime()
	if rt < 100*sim.Nanosecond || rt > 1600*sim.Nanosecond {
		t.Fatalf("remote access time %v, want within ~4x of the paper's 400ns", rt)
	}
	t.Logf("remote access time: %v", rt)
}

func TestMPSoCWindowsCoverEveryRound(t *testing.T) {
	m := NewMPSoC(testKey, DefaultParams(50))
	sess := m.RunSession(0xdeadbeefcafef00d)
	if len(sess.Windows) < gift.Rounds64 {
		t.Fatalf("only %d probe windows for a 28-round encryption", len(sess.Windows))
	}
	covered := map[int]bool{}
	for _, w := range sess.Windows {
		if w.FirstRound > w.LastRound {
			t.Fatalf("window with FirstRound %d > LastRound %d", w.FirstRound, w.LastRound)
		}
		for r := w.FirstRound; r <= w.LastRound; r++ {
			covered[r] = true
		}
	}
	for r := 1; r <= gift.Rounds64; r++ {
		if !covered[r] {
			t.Errorf("round %d covered by no probe window", r)
		}
	}
}

func TestSingleSoCWindowsTileTheEncryption(t *testing.T) {
	s := NewSingleSoC(testKey, DefaultParams(10))
	sess := s.RunSession(0x0102030405060708)
	if len(sess.Windows) == 0 {
		t.Fatal("no probe windows")
	}
	last := sess.Windows[len(sess.Windows)-1]
	if last.LastRound != gift.Rounds64 {
		t.Fatalf("final window ends at round %d, want %d", last.LastRound, gift.Rounds64)
	}
	for i := 1; i < len(sess.Windows); i++ {
		if sess.Windows[i].FirstRound < sess.Windows[i-1].LastRound {
			// Conservative overlap of one round is fine; regression
			// beyond that indicates broken accounting.
			if sess.Windows[i].FirstRound < sess.Windows[i-1].LastRound-1 {
				t.Fatalf("windows regress: %+v then %+v", sess.Windows[i-1], sess.Windows[i])
			}
		}
	}
}

func TestSingleSoCObservationsContainVictimLines(t *testing.T) {
	// Union of all windows must cover every line the victim touched in
	// rounds observed — at minimum, the union must be non-empty and
	// within the table.
	s := NewSingleSoC(testKey, DefaultParams(10))
	sess := s.RunSession(0x00ff00ff00ff00ff)
	var union int
	for _, w := range sess.Windows {
		union |= int(w.Set)
		if w.Set.Count() > 16 {
			t.Fatalf("window set %v exceeds table", w.Set)
		}
	}
	if union == 0 {
		t.Fatal("attacker saw no victim accesses at all")
	}
}

func TestPlatformChannelLines(t *testing.T) {
	for _, lineBytes := range []int{1, 2, 4, 8} {
		p := DefaultParams(10)
		p.CacheLineBytes = lineBytes
		ch := &PlatformChannel{P: NewSingleSoC(testKey, p), LineBytes: lineBytes}
		if got, want := ch.Lines(), 16/lineBytes; got != want {
			t.Errorf("lineBytes=%d: Lines=%d, want %d", lineBytes, got, want)
		}
	}
}

func TestPlatformChannelCollect(t *testing.T) {
	ch := &PlatformChannel{P: NewMPSoC(testKey, DefaultParams(50)), LineBytes: 1}
	set := ch.Collect(0x123456789abcdef0, 1)
	if set.Count() == 0 || set.Count() > 16 {
		t.Fatalf("collected %v", set)
	}
	if ch.Encryptions() != 1 {
		t.Fatalf("Encryptions = %d", ch.Encryptions())
	}
}

func TestSessionsCount(t *testing.T) {
	s := NewSingleSoC(testKey, DefaultParams(25))
	for i := 0; i < 3; i++ {
		s.RunSession(uint64(i))
	}
	if s.Sessions() != 3 {
		t.Fatalf("Sessions = %d", s.Sessions())
	}
}

func TestDeterministicSessions(t *testing.T) {
	run := func() Session {
		s := NewSingleSoC(testKey, DefaultParams(25))
		return s.RunSession(0xabcdef)
	}
	a, b := run(), run()
	if a.Ciphertext != b.Ciphertext || len(a.Windows) != len(b.Windows) {
		t.Fatal("sessions nondeterministic")
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			t.Fatalf("window %d differs: %+v vs %+v", i, a.Windows[i], b.Windows[i])
		}
	}
}

// TestEarliestProbeRoundIsFirstWindow: the Table II race stands the
// attacker down after its first probe window, which must not change the
// reported round — it equals the first window of a full session on a
// fresh platform — and must cost exactly one session.
func TestEarliestProbeRoundIsFirstWindow(t *testing.T) {
	for _, prim := range []ProbePrimitive{PrimitiveFlushReload, PrimitivePrimeProbe} {
		for _, mhz := range []uint64{10, 25, 50} {
			params := DefaultParams(mhz)
			params.Primitive = prim
			builds := map[string]func() Platform{
				"single": func() Platform { return NewSingleSoC(testKey, params) },
				"mpsoc":  func() Platform { return NewMPSoC(testKey, params) },
			}
			for name, build := range builds {
				want := build().RunSession(0x0123456789abcdef).Windows[0].LastRound
				p := build()
				before := p.Sessions()
				if got := p.EarliestProbeRound(); got != want {
					t.Errorf("%s %v %d MHz: EarliestProbeRound %d, full session's first window %d", name, prim, mhz, got, want)
				}
				if n := p.Sessions() - before; n != 1 {
					t.Errorf("%s %v %d MHz: race ran %d sessions, want 1", name, prim, mhz, n)
				}
			}
		}
	}
}
