// Package metrics is the fleet-telemetry layer of the reproduction: a
// stdlib-only, race-safe registry of counters, gauges and fixed-bucket
// histograms, a deterministic snapshot model, a Prometheus text-format
// v0.0.4 exposition writer, and the cumulative-delta protocol workers
// use to ship their series to the campaignd coordinator.
//
// Determinism contract. Every instrument value is an integer and every
// histogram bucket bound is an exact integer, so a snapshot of a
// registry fed only simulation-derived quantities (encryption counts,
// observation counts, sim-clock picoseconds) is byte-deterministic:
// same spec, same seed → same snapshot bytes, any worker count, any
// scheduling. Wall-clock quantities are quarantined behind explicitly
// wall-marked instruments (WallGauge, WallHistogram); Deterministic
// filters them out, so the deterministic identity of a snapshot never
// contains a wall-clock read. The package itself never reads the
// clock — wall values are sampled by callers that carry their own
// reviewed //grinchvet:ignore waivers.
//
// Cost model. Like the nil obs.Tracer (DESIGN.md §10), a nil *Registry
// hands out nil instruments and every Add/Set/Observe on a nil
// instrument is a single nil-check branch — the attack hot path pays
// nothing measurable when metrics are off (BenchmarkAttackNilMetrics
// pins this). Active instruments are lock-free atomics; the registry
// mutex is only taken at instrument resolution and snapshot time.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Series kinds.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Label is one name dimension. Labels on an instrument are sorted by
// key, so the same label set always produces the same series identity.
type Label struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing uint64. A nil Counter is a
// no-op: components resolve instruments once at construction and emit
// unconditionally.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable signed value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets with exact integer
// upper bounds (inclusive: an observation lands in the first bucket
// whose bound is >= the value; larger values land in the implicit +Inf
// overflow bucket). Bounds are fixed at registration, so two
// histograms registered identically are always mergeable.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// ExpBuckets returns n exponentially spaced integer bounds
// {start, start·factor, start·factor², …}.
func ExpBuckets(start, factor uint64, n int) []uint64 {
	out := make([]uint64, 0, n)
	b := start
	for i := 0; i < n; i++ {
		out = append(out, b)
		b *= factor
	}
	return out
}

// Canonical bucket sets shared across the stack, so worker and
// coordinator series always merge.
var (
	// DurationMSBuckets covers per-job wall durations from 1ms to 1min.
	DurationMSBuckets = []uint64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}
	// EncryptionBuckets covers per-job victim-encryption counts up to
	// the paper's 1M practicality cap.
	EncryptionBuckets = ExpBuckets(64, 4, 8) // 64 .. ~1M
	// ObservationBuckets covers per-segment elimination lengths.
	ObservationBuckets = ExpBuckets(4, 4, 10) // 4 .. ~1M
)

// family is one registered metric name: its metadata plus all labeled
// series under it.
type family struct {
	name   string
	help   string
	kind   string
	wall   bool
	bounds []uint64
	series map[string]*labeledSeries // label signature → series
}

// labeledSeries is one (name, labels) instrument.
type labeledSeries struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry owns families and hands out instruments. The zero value is
// not usable; use New. A nil *Registry is valid and hands out nil
// instruments — the disabled fast path.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// New returns an empty registry.
func New() *Registry { return &Registry{fams: map[string]*family{}} }

// sortLabels returns labels sorted by key (copying, so callers'
// literals are never mutated).
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// labelSig renders a sorted label list into the series map key.
func labelSig(labels []Label) string {
	sig := ""
	for _, l := range labels {
		sig += l.Key + "\x00" + l.Value + "\x00"
	}
	return sig
}

// resolve returns (creating if needed) the series for (name, labels),
// enforcing kind/bound consistency: re-registering a name with a
// different shape is a programming error and panics.
func (r *Registry) resolve(name, help, kind string, wall bool, bounds []uint64, labels []Label) *labeledSeries {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{
			name:   name,
			help:   help,
			kind:   kind,
			wall:   wall,
			bounds: append([]uint64(nil), bounds...),
			series: map[string]*labeledSeries{},
		}
		r.fams[name] = f
	} else {
		if f.kind != kind || f.wall != wall || !boundsEqual(f.bounds, bounds) {
			panic("metrics: " + name + " re-registered with a different shape")
		}
		if f.help == "" {
			f.help = help
		}
	}
	sorted := sortLabels(labels)
	sig := labelSig(sorted)
	ls := f.series[sig]
	if ls == nil {
		ls = &labeledSeries{labels: sorted}
		switch kind {
		case KindCounter:
			ls.counter = &Counter{}
		case KindGauge:
			ls.gauge = &Gauge{}
		case KindHistogram:
			ls.hist = &Histogram{
				bounds: f.bounds,
				counts: make([]atomic.Uint64, len(f.bounds)+1),
			}
		}
		f.series[sig] = ls
	}
	return ls
}

func boundsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter returns the counter for (name, labels), registering it on
// first use. Nil registry → nil counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.resolve(name, help, KindCounter, false, nil, labels).counter
}

// Gauge returns the gauge for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.resolve(name, help, KindGauge, false, nil, labels).gauge
}

// WallGauge is Gauge for a wall-clock-derived value: the series is
// flagged and excluded from deterministic snapshots.
func (r *Registry) WallGauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.resolve(name, help, KindGauge, true, nil, labels).gauge
}

// Histogram returns the fixed-bucket histogram for (name, labels).
// bounds must be ascending integers; they are fixed at first
// registration.
func (r *Registry) Histogram(name, help string, bounds []uint64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.resolve(name, help, KindHistogram, false, bounds, labels).hist
}

// WallHistogram is Histogram for wall-clock-derived samples (per-job
// wall durations): flagged, excluded from deterministic snapshots.
func (r *Registry) WallHistogram(name, help string, bounds []uint64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.resolve(name, help, KindHistogram, true, bounds, labels).hist
}

// Snapshot returns every series' current value, sorted by (name, label
// signature) — byte-deterministic for deterministic inputs. Nil
// registry → nil.
func (r *Registry) Snapshot() []Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Series
	names := make([]string, 0, len(r.fams))
	for name := range r.fams { //grinchvet:ignore maporder key collection; sorted on the next line
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.fams[name]
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series { //grinchvet:ignore maporder key collection; sorted on the next line
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			ls := f.series[sig]
			s := Series{
				Name:   f.name,
				Labels: ls.labels,
				Kind:   f.kind,
				Wall:   f.wall,
				Help:   f.help,
			}
			switch f.kind {
			case KindCounter:
				s.Value = ls.counter.Value()
			case KindGauge:
				s.Gauge = ls.gauge.Value()
			case KindHistogram:
				s.Bounds = f.bounds
				s.Counts = make([]uint64, len(ls.hist.counts))
				for i := range ls.hist.counts {
					s.Counts[i] = ls.hist.counts[i].Load()
				}
				s.Sum = ls.hist.sum.Load()
			}
			out = append(out, s)
		}
	}
	return out
}
