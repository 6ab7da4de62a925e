package soc

import (
	"grinch/internal/bitutil"
	"grinch/internal/cache"
	"grinch/internal/gift"
	"grinch/internal/noc"
	"grinch/internal/obs/metrics"
	"grinch/internal/probe"
	"grinch/internal/sim"
	"grinch/internal/victim"
)

// MPSoC is the paper's second platform: a tile-based multiprocessor with
// a mesh NoC (XY routing) and a shared cache tile. The attacker runs on
// its own tile, so it probes concurrently with the victim — the paper
// measured a ≈400 ns remote cache access against a ≈1.2 ms round time,
// which is why the MPSoC attacker reaches round 1 at every frequency
// (Table II).
type MPSoC struct {
	params   Params
	cipher   *gift.Cipher64
	table    probe.TableLayout
	sessions uint64
	meter    *probe.Meter
	// cache is the shared L1, reset at the start of every session.
	cache *cache.Cache
}

// NewMPSoC builds the platform around a victim key.
func NewMPSoC(key bitutil.Word128, params Params) *MPSoC {
	return &MPSoC{
		params: params,
		cipher: gift.NewCipher64FromWord(key),
		table:  probe.TableLayout{Base: params.TableBase, EntryBytes: 1, Entries: 16},
		cache:  cache.MustNew(cache.PaperConfig(params.CacheLineBytes)),
	}
}

// Table returns the victim's S-box table layout.
func (m *MPSoC) Table() probe.TableLayout { return m.table }

// SetMetrics points the per-session Flush+Reload primitive at a metrics
// registry (nil disables).
func (m *MPSoC) SetMetrics(r *metrics.Registry) {
	m.meter = probe.NewMeter(r, PrimitiveFlushReload.String())
}

// Sessions returns how many victim encryptions the platform has run.
func (m *MPSoC) Sessions() uint64 { return m.sessions }

// nocExecutor charges work to a dedicated core whose memory accesses
// cross the mesh to the shared cache tile and back.
type nocExecutor struct {
	proc  *sim.Proc
	clock sim.Clock
	mesh  *noc.Mesh
	cache *cache.Cache
	tile  noc.Coord
	cchTl noc.Coord
	line  int
}

func (e *nocExecutor) Exec(cycles uint64) { e.proc.Wait(e.clock.Cycles(cycles)) }

func (e *nocExecutor) Access(addr uint64) uint64 {
	// The cache lookup happens at the remote tile; its latency is the
	// "processing" leg of the round trip. State is updated on issue,
	// which preserves access ordering at the µs scale the attack sees.
	res := e.cache.Access(addr)
	before := e.proc.Now()
	e.mesh.RoundTrip(e.proc, e.tile, e.cchTl, 4, e.line, e.clock.Cycles(res.Latency))
	return e.clock.CyclesAt(e.proc.Now() - before)
}

// RunSession simulates one encryption of pt with the attacker polling
// Flush+Reload from its own tile. One probe window is produced per poll
// — several per round with the default polling period.
func (m *MPSoC) RunSession(pt uint64) Session {
	return m.runSession(pt, gift.Rounds64)
}

// RunSessionUntil is RunSession with the attacker standing down once the
// victim passes probeUntilRound; the victim's remaining rounds are
// fast-forwarded (their timing can no longer be observed), which makes
// attack campaigns over the platform an order of magnitude cheaper to
// simulate without changing anything the attacker sees.
func (m *MPSoC) RunSessionUntil(pt uint64, probeUntilRound int) Session {
	return m.runSession(pt, probeUntilRound)
}

func (m *MPSoC) runSession(pt uint64, probeUntilRound int) Session {
	m.sessions++
	k := sim.NewKernel()
	clock := sim.ClockMHz(m.params.ClockMHz)
	cch := m.cache
	cch.Reset()
	mesh := noc.MustNew(k, clock, m.params.Mesh)
	vic := victim.New(m.cipher, m.table, m.params.Timing)

	poll := m.params.AttackerPoll
	if poll == 0 {
		// Quarter-round windows keep the union of windows covering any
		// one round narrow enough for candidate elimination (the
		// paper's attacker has the same freedom: its probe is ~3000×
		// faster than a round).
		poll = clock.Cycles(vic.RoundCycles()) / 4
	}

	var sess Session
	done := false
	standDown := false

	k.Spawn("victim", func(p *sim.Proc) {
		ex := &nocExecutor{
			proc: p, clock: clock, mesh: mesh, cache: cch,
			tile: m.params.VictimTile, cchTl: m.params.CacheTile,
			line: m.params.CacheLineBytes,
		}
		// Small startup cost: fetching the plaintext over the NoC.
		mesh.RoundTrip(p, m.params.VictimTile, m.params.CacheTile, 4, 8, 0)
		sess.Ciphertext = vic.Encrypt(&cutoverExecutor{
			slow: ex, fast: &fastExecutor{cache: cch}, standDown: &standDown,
		}, pt)
		done = true
	})

	k.Spawn("attacker", func(p *sim.Proc) {
		ex := &nocExecutor{
			proc: p, clock: clock, mesh: mesh, cache: cch,
			tile: m.params.AttackerTile, cchTl: m.params.CacheTile,
			line: m.params.CacheLineBytes,
		}
		fr := &probe.FlushReload{Cache: cch, Table: m.table, Meter: m.meter}
		flushRemote(ex, fr)
		first := roundOrStart(vic)
		for {
			p.Wait(poll)
			last := roundOrEnd(vic, done)
			set := probeAndFlushRemote(ex, fr)
			sess.Windows = append(sess.Windows, ProbeWindow{
				FirstRound: first,
				LastRound:  last,
				Set:        set,
				At:         p.Now(),
			})
			if done || last > probeUntilRound {
				standDown = true
				break
			}
			first = roundOrStart(vic)
		}
	})

	k.Run()
	sess.CacheStats = cch.Stats()
	return sess
}

// cutoverExecutor runs the victim at full timing fidelity until the
// attacker stands down, then switches to an untimed executor: once no
// probe will ever run again, the remaining rounds' timing is
// unobservable and only the cache-state and ciphertext effects matter.
type cutoverExecutor struct {
	slow, fast victim.Executor
	standDown  *bool
}

func (e *cutoverExecutor) current() victim.Executor {
	if *e.standDown {
		return e.fast
	}
	return e.slow
}

func (e *cutoverExecutor) Exec(cycles uint64)        { e.current().Exec(cycles) }
func (e *cutoverExecutor) Access(addr uint64) uint64 { return e.current().Access(addr) }

// fastExecutor mutates cache state without consuming virtual time.
type fastExecutor struct {
	cache *cache.Cache
}

func (e *fastExecutor) Exec(uint64) {}
func (e *fastExecutor) Access(addr uint64) uint64 {
	e.cache.Access(addr)
	return 0
}

// EarliestProbeRound reports the round the attacker's first reload lands
// in (Table II metric). Only the first probe window matters, so the
// attacker stands down right after it.
func (m *MPSoC) EarliestProbeRound() int {
	sess := m.RunSessionUntil(0x0123456789abcdef, 0)
	if len(sess.Windows) == 0 {
		return 0
	}
	return sess.Windows[0].LastRound
}

// flushRemote flushes every table line over the NoC: each flush is a
// one-way command packet plus the flush cost at the cache tile.
func flushRemote(ex *nocExecutor, fr *probe.FlushReload) {
	lineBytes := ex.cache.Config().LineBytes
	n := fr.Table.LinesIn(lineBytes)
	for l := 0; l < n; l++ {
		cycles := ex.cache.FlushLine(fr.Table.Base + uint64(l*lineBytes))
		ex.mesh.Send(ex.proc, ex.tile, ex.cchTl, 4)
		ex.Exec(cycles)
	}
}

// probeAndFlushRemote reloads and immediately re-flushes each table
// line over the NoC, one line at a time. Interleaving the flush with
// the reload keeps the blind window per line to roughly one NoC round
// trip — victim accesses landing inside it are lost, which is the
// platform channel's natural (small) false-absence noise.
func probeAndFlushRemote(ex *nocExecutor, fr *probe.FlushReload) probe.LineSet {
	lineBytes := ex.cache.Config().LineBytes
	n := fr.Table.LinesIn(lineBytes)
	var set probe.LineSet
	for l := 0; l < n; l++ {
		addr := fr.Table.Base + uint64(l*lineBytes)
		res := ex.cache.Access(addr)
		ex.mesh.RoundTrip(ex.proc, ex.tile, ex.cchTl, 4, lineBytes, ex.clock.Cycles(res.Latency))
		if res.Hit {
			set = set.Add(l)
		}
		cycles := ex.cache.FlushLine(addr)
		ex.mesh.Send(ex.proc, ex.tile, ex.cchTl, 4)
		ex.Exec(cycles)
	}
	return set
}

// RemoteAccessTime reports the modelled cost of one attacker cache
// access (processor + NoC + cache response), the paper's ≈400 ns
// figure, at the platform's clock.
func (m *MPSoC) RemoteAccessTime() sim.Time {
	k := sim.NewKernel()
	clock := sim.ClockMHz(m.params.ClockMHz)
	cch := m.cache
	cch.Reset()
	mesh := noc.MustNew(k, clock, m.params.Mesh)
	var rt sim.Time
	k.Spawn("meter", func(p *sim.Proc) {
		res := cch.Access(m.params.TableBase)
		rt = mesh.RoundTrip(p, m.params.AttackerTile, m.params.CacheTile, 4, m.params.CacheLineBytes, clock.Cycles(res.Latency))
	})
	k.Run()
	return rt
}
