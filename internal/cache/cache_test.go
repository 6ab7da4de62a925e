package cache

import (
	"testing"
	"testing/quick"

	"grinch/internal/rng"
)

func smallConfig() Config {
	return Config{Sets: 4, Ways: 2, LineBytes: 4, HitLatency: 1, MissLatency: 10, FlushLatency: 2}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 1, LineBytes: 1},
		{Sets: 3, Ways: 1, LineBytes: 1},
		{Sets: 4, Ways: 0, LineBytes: 1},
		{Sets: 4, Ways: 1, LineBytes: 0},
		{Sets: 4, Ways: 1, LineBytes: 3},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid geometry", cfg)
		}
	}
}

func TestPaperConfigGeometry(t *testing.T) {
	cfg := PaperConfig(1)
	if cfg.Lines() != 1024 {
		t.Fatalf("paper cache has %d lines, want 1024", cfg.Lines())
	}
	if cfg.Ways != 16 {
		t.Fatalf("paper cache is %d-way, want 16", cfg.Ways)
	}
	if _, err := New(cfg); err != nil {
		t.Fatalf("PaperConfig invalid: %v", err)
	}
}

func TestMissThenHit(t *testing.T) {
	c := MustNew(smallConfig())
	r := c.Access(0x100)
	if r.Hit {
		t.Fatal("first access hit an empty cache")
	}
	if r.Latency != 10 {
		t.Fatalf("miss latency %d, want 10", r.Latency)
	}
	r = c.Access(0x100)
	if !r.Hit {
		t.Fatal("second access to same line missed")
	}
	if r.Latency != 1 {
		t.Fatalf("hit latency %d, want 1", r.Latency)
	}
}

func TestSameLineDifferentOffsetHits(t *testing.T) {
	c := MustNew(smallConfig()) // 4-byte lines
	c.Access(0x100)
	for off := uint64(1); off < 4; off++ {
		if r := c.Access(0x100 + off); !r.Hit {
			t.Fatalf("offset %d within the line missed", off)
		}
	}
	if r := c.Access(0x104); r.Hit {
		t.Fatal("next line hit without being fetched")
	}
}

func TestContainsAfterAccessQuick(t *testing.T) {
	c := MustNew(smallConfig())
	f := func(addr uint64) bool {
		c.Access(addr)
		return c.Contains(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetMapping(t *testing.T) {
	cfg := smallConfig() // 4 sets, 4-byte lines
	c := MustNew(cfg)
	// Addresses 0, 4, 8, 12 map to sets 0..3; 16 wraps to set 0.
	for i, want := range []int{0, 1, 2, 3, 0} {
		if r := c.Access(uint64(4 * i)); r.Set != want {
			t.Fatalf("addr %#x mapped to set %d, want %d", 4*i, r.Set, want)
		}
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := MustNew(smallConfig()) // 2 ways
	// Three conflicting lines in set 0 (stride = sets*lineBytes = 16).
	a, b, d := uint64(0), uint64(16), uint64(32)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent; b is LRU
	r := c.Access(d)
	if !r.Eviction || r.Evicted != b {
		t.Fatalf("expected eviction of %#x, got eviction=%v addr=%#x", b, r.Eviction, r.Evicted)
	}
	if !c.Contains(a) || c.Contains(b) || !c.Contains(d) {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestFIFOEvictionIgnoresHits(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = NewFIFO()
	c := MustNew(cfg)
	a, b, d := uint64(0), uint64(16), uint64(32)
	c.Access(a)
	c.Access(b)
	c.Access(a) // hit must NOT refresh a under FIFO
	r := c.Access(d)
	if !r.Eviction || r.Evicted != a {
		t.Fatalf("FIFO should evict first-filled %#x, evicted %#x", a, r.Evicted)
	}
}

func TestRandomPolicyDeterministic(t *testing.T) {
	run := func() []uint64 {
		cfg := smallConfig()
		cfg.Policy = NewRandom(7)
		c := MustNew(cfg)
		src := rng.New(3)
		var evicted []uint64
		for i := 0; i < 200; i++ {
			r := c.Access(uint64(src.Intn(16)) * 16) // all in set 0
			if r.Eviction {
				evicted = append(evicted, r.Evicted)
			}
		}
		return evicted
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("eviction counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction %d differs: %#x vs %#x", i, a[i], b[i])
		}
	}
}

func TestPLRUVictimIsNotMostRecent(t *testing.T) {
	cfg := Config{Sets: 1, Ways: 4, LineBytes: 1, HitLatency: 1, MissLatency: 10, FlushLatency: 1, Policy: NewPLRU()}
	c := MustNew(cfg)
	for i := uint64(0); i < 4; i++ {
		c.Access(i)
	}
	c.Access(3) // most recently touched
	r := c.Access(100)
	if !r.Eviction {
		t.Fatal("full set did not evict")
	}
	if r.Evicted == 3 {
		t.Fatal("PLRU evicted the most recently touched way")
	}
}

func TestFlushLine(t *testing.T) {
	c := MustNew(smallConfig())
	c.Access(0x40)
	if !c.Contains(0x40) {
		t.Fatal("line not resident after access")
	}
	lat := c.FlushLine(0x40)
	if lat != 2 {
		t.Fatalf("flush latency %d, want 2", lat)
	}
	if c.Contains(0x40) {
		t.Fatal("line resident after flush")
	}
	if r := c.Access(0x40); r.Hit {
		t.Fatal("access after flush hit")
	}
}

func TestFlushRangeCoversPartialLines(t *testing.T) {
	c := MustNew(smallConfig()) // 4-byte lines
	for a := uint64(0); a < 32; a += 4 {
		c.Access(a)
	}
	// Range [2, 10) overlaps lines 0, 4, 8.
	c.FlushRange(2, 8)
	for _, a := range []uint64{0, 4, 8} {
		if c.Contains(a) {
			t.Errorf("line %#x survived FlushRange", a)
		}
	}
	for _, a := range []uint64{12, 16, 20, 24, 28} {
		if !c.Contains(a) {
			t.Errorf("line %#x wrongly flushed", a)
		}
	}
	if c.FlushRange(0, 0) != 0 {
		t.Error("zero-size FlushRange charged latency")
	}
}

func TestFlushAll(t *testing.T) {
	c := MustNew(smallConfig())
	for a := uint64(0); a < 64; a += 4 {
		c.Access(a)
	}
	c.FlushAll()
	if n := len(c.ResidentLines()); n != 0 {
		t.Fatalf("%d lines resident after FlushAll", n)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := MustNew(smallConfig())
	c.Access(0)  // miss
	c.Access(0)  // hit
	c.Access(16) // miss (set 0)
	c.Access(32) // miss + eviction
	c.FlushLine(0)
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 1 || s.Misses != 3 || s.Evictions != 1 || s.Flushes != 1 {
		t.Fatalf("stats = %+v", s)
	}
	wantCycles := uint64(10 + 1 + 10 + 10 + 2)
	if s.Cycles != wantCycles {
		t.Fatalf("cycles = %d, want %d", s.Cycles, wantCycles)
	}
	if got := s.HitRate(); got != 0.25 {
		t.Fatalf("hit rate = %v, want 0.25", got)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Accesses: 1, Hits: 2, Misses: 3, Evictions: 4, Flushes: 5, FlushedLines: 6, Cycles: 7}
	a.Add(Stats{Accesses: 10, Hits: 20, Misses: 30, Evictions: 40, Flushes: 50, FlushedLines: 60, Cycles: 70})
	want := Stats{Accesses: 11, Hits: 22, Misses: 33, Evictions: 44, Flushes: 55, FlushedLines: 66, Cycles: 77}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

// TestFlushCountersDistinguishOpsFromWork pins the semantics of the
// two flush counters feeding cache_snapshot trace events: Flushes
// counts operations issued, FlushedLines counts lines actually
// invalidated.
func TestFlushCountersDistinguishOpsFromWork(t *testing.T) {
	c := MustNew(smallConfig())
	c.Access(0)
	c.Access(64) // same set as 0, second way

	// Flushing a non-resident line is an op with no work.
	c.FlushLine(128)
	if s := c.Stats(); s.Flushes != 1 || s.FlushedLines != 0 {
		t.Fatalf("no-op flush: %+v", s)
	}
	// Flushing a resident line counts both.
	c.FlushLine(0)
	if s := c.Stats(); s.Flushes != 2 || s.FlushedLines != 1 {
		t.Fatalf("resident flush: %+v", s)
	}
	// Re-flushing the now-absent line is an op with no work again.
	c.FlushLine(0)
	if s := c.Stats(); s.Flushes != 3 || s.FlushedLines != 1 {
		t.Fatalf("double flush: %+v", s)
	}
	// FlushRange over both lines invalidates only the remaining one.
	c.FlushRange(0, 128)
	s := c.Stats()
	if s.FlushedLines != 2 {
		t.Fatalf("FlushRange flushed %d lines total, want 2: %+v", s.FlushedLines, s)
	}
}

func TestFlushAllCountsResidentLines(t *testing.T) {
	c := MustNew(smallConfig())
	// Fill three distinct lines (sets 0 and 1).
	c.Access(0)
	c.Access(4)
	c.Access(64)
	before := c.Stats()
	c.FlushAll()
	s := c.Stats()
	if got := s.FlushedLines - before.FlushedLines; got != 3 {
		t.Fatalf("FlushAll invalidated %d lines, want 3", got)
	}
	if got := s.Flushes - before.Flushes; got != 1 {
		t.Fatalf("FlushAll counted %d ops, want 1", got)
	}
	// Flushing the now-empty cache does no line work.
	c.FlushAll()
	if c.Stats().FlushedLines != s.FlushedLines {
		t.Fatal("FlushAll of an empty cache reported flushed lines")
	}
}

// TestEvictionCounterMatchesResults cross-checks the Evictions counter
// against the per-access Result.Eviction reports.
func TestEvictionCounterMatchesResults(t *testing.T) {
	c := MustNew(smallConfig())
	src := rng.New(3)
	var want uint64
	for i := 0; i < 2000; i++ {
		if c.Access(uint64(src.Intn(256))).Eviction {
			want++
		}
	}
	if got := c.Stats().Evictions; got != want || want == 0 {
		t.Fatalf("Evictions = %d, per-access reports = %d (want nonzero match)", got, want)
	}
}

func TestResidencyNeverExceedsWays(t *testing.T) {
	cfg := smallConfig()
	c := MustNew(cfg)
	src := rng.New(11)
	for i := 0; i < 5000; i++ {
		c.Access(uint64(src.Intn(1 << 12)))
		perSet := map[int]int{}
		for _, a := range c.ResidentLines() {
			perSet[c.setOf(a)]++
		}
		for set, n := range perSet {
			if n > cfg.Ways {
				t.Fatalf("set %d holds %d lines, ways=%d", set, n, cfg.Ways)
			}
		}
	}
}

// TestWorkingSetFitsNoEvictions: a working set no larger than the
// associativity per set must reach a 100% hit steady state under every
// history-based policy.
func TestWorkingSetFitsNoEvictions(t *testing.T) {
	for _, mk := range []func() Policy{NewLRU, NewFIFO, NewPLRU} {
		cfg := Config{Sets: 2, Ways: 4, LineBytes: 2, HitLatency: 1, MissLatency: 5, FlushLatency: 1, Policy: mk()}
		c := MustNew(cfg)
		addrs := []uint64{0, 2, 4, 6, 8, 10, 12, 14} // alternate sets, 4 lines per set
		for _, a := range addrs {
			c.Access(a)
		}
		c.ResetStats()
		for round := 0; round < 10; round++ {
			for _, a := range addrs {
				if r := c.Access(a); !r.Hit {
					t.Fatalf("%s: steady-state miss at %#x", cfg.Policy.Name(), a)
				}
			}
		}
	}
}

func TestLineBase(t *testing.T) {
	c := MustNew(smallConfig())
	if c.LineBase(0x107) != 0x104 {
		t.Fatalf("LineBase(0x107) = %#x", c.LineBase(0x107))
	}
	if c.LineBase(0x104) != 0x104 {
		t.Fatalf("LineBase(0x104) = %#x", c.LineBase(0x104))
	}
}

func TestRebuildAddrInverse(t *testing.T) {
	c := MustNew(smallConfig())
	f := func(addr uint64) bool {
		base := c.LineBase(addr)
		return c.rebuildAddr(c.setOf(addr), c.tagOf(addr)) == base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"lru", "fifo", "random", "plru"} {
		p := PolicyByName(name, 1)
		if p == nil || p.Name() != name {
			t.Errorf("PolicyByName(%q) = %v", name, p)
		}
	}
	if PolicyByName("nope", 1) != nil {
		t.Error("unknown policy name did not return nil")
	}
}

// TestResetMatchesNew drives a cache through accesses, flushes and
// evictions, resets it and replays the same sequence: every result and
// the final counters must match a freshly built cache's, for each
// policy.
func TestResetMatchesNew(t *testing.T) {
	policies := map[string]func() Policy{
		"lru":    NewLRU,
		"fifo":   NewFIFO,
		"random": func() Policy { return NewRandom(7) },
		"plru":   NewPLRU,
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig()
			replay := func(c *Cache) ([]Result, Stats) {
				var out []Result
				r := rng.New(3)
				for i := 0; i < 400; i++ {
					addr := r.Uint64() % 256
					switch r.Intn(40) {
					case 0:
						c.FlushAll()
					case 1, 2, 3:
						c.FlushLine(addr)
					case 4, 5:
						c.FlushRange(addr, 9)
					default:
						out = append(out, c.Access(addr))
					}
				}
				return out, c.Stats()
			}
			cfg.Policy = mk()
			fresh, freshStats := replay(MustNew(cfg))
			cfg.Policy = mk()
			c := MustNew(cfg)
			replay(c)
			c.Reset()
			if got := c.ResidentLines(); len(got) != 0 {
				t.Fatalf("Reset left resident lines %v", got)
			}
			again, againStats := replay(c)
			if againStats != freshStats {
				t.Fatalf("stats after Reset %+v, fresh %+v", againStats, freshStats)
			}
			if len(again) != len(fresh) {
				t.Fatalf("%d results after Reset, %d fresh", len(again), len(fresh))
			}
			for i := range fresh {
				if again[i] != fresh[i] {
					t.Fatalf("access %d after Reset %+v, fresh %+v", i, again[i], fresh[i])
				}
			}
		})
	}
}

// TestResetDoesNotAllocate: platforms reset one cache per session, so
// Reset (and FlushAll, which resets the policy) must reuse storage.
func TestResetDoesNotAllocate(t *testing.T) {
	c := MustNew(PaperConfig(1))
	for i := uint64(0); i < 64; i++ {
		c.Access(i * 3)
	}
	if n := testing.AllocsPerRun(100, c.Reset); n != 0 {
		t.Errorf("LRU Reset allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, c.FlushAll); n != 0 {
		t.Errorf("FlushAll allocates %v times", n)
	}
}
