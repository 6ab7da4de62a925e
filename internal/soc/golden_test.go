package soc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
)

// sessionGoldenDigest pins every platform observable over the grid in
// TestSessionGoldenDigest. It was recorded before the simulation kernel
// and the per-platform state reuse were optimised; any change to it is a
// change in what the attack sees.
const sessionGoldenDigest = "cc5fa48abb00ef9dca340e1fac8b637ba1cc1857be25650113d750e128e3da83"

// TestSessionGoldenDigest hashes the sessions of every platform flavour
// over the paper's clocks and line sizes. Several sessions run back to
// back on one platform, mixing full sessions with early stand-downs, so
// state leaking from one session into the next changes the digest.
func TestSessionGoldenDigest(t *testing.T) {
	h := sha256.New()
	for _, mhz := range []uint64{10, 25, 50} {
		for _, line := range []int{1, 2, 4, 8} {
			params := DefaultParams(mhz)
			params.CacheLineBytes = line
			pp := params
			pp.Primitive = PrimitivePrimeProbe
			mp := NewMPSoC(testKey, params)
			platforms := []struct {
				name string
				p    Platform
			}{
				{"single-fr", NewSingleSoC(testKey, params)},
				{"single-pp", NewSingleSoC(testKey, pp)},
				{"mpsoc", mp},
			}
			for _, pl := range platforms {
				fmt.Fprintf(h, "%s %dMHz line=%d\n", pl.name, mhz, line)
				pt := uint64(0x0123456789abcdef) ^ uint64(mhz)<<40 ^ uint64(line)<<8
				for rep := 0; rep < 2; rep++ {
					writeSession(h, pl.p.RunSession(pt))
					for r := 1; r <= 5; r++ {
						pt = pt*0x9e3779b97f4a7c15 + 1
						writeSession(h, pl.p.RunSessionUntil(pt, r))
					}
				}
				fmt.Fprintf(h, "earliest=%d sessions=%d\n", pl.p.EarliestProbeRound(), pl.p.Sessions())
			}
			fmt.Fprintf(h, "remote=%d\n", uint64(mp.RemoteAccessTime()))
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != sessionGoldenDigest {
		t.Fatalf("session digest %s, want %s", got, sessionGoldenDigest)
	}
}

// writeSession feeds a session into the digest: its %+v rendering plus
// the exact picosecond stamps, which Time's String rounds.
func writeSession(h hash.Hash, s Session) {
	fmt.Fprintf(h, "%+v\n", s)
	for _, w := range s.Windows {
		fmt.Fprintf(h, "%d ", uint64(w.At))
	}
	fmt.Fprintln(h)
}
