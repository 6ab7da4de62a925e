package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary, recorded from the
// benchmark's own wrappers. Calls too frequent to keep one by one (one
// per victim encryption) are folded: consecutive calls with the same
// name and parent add to one record's dur and calls, and dur is
// estimated from a sample of them (see jobTrace.fold).
type span struct {
	name   string
	job    int32 // owning job or request sequence number
	parent int32 // index of the enclosing span, -1 at a root
	start  int64 // ns since the tracer's epoch
	dur    int64 // ns, summed over folded calls
	calls  int64
	items  int64 // layer-specific work count: lanes primed, windows, bytes
}

// counts are exact work counts gathered at the same boundaries as the
// spans, so ratios are taken where the work happens.
type counts struct {
	encryptions   uint64 // victim encryptions consumed by core attacks
	sessions      uint64 // platform sessions, attack and race alike
	cacheAccesses uint64 // over spanned sessions
	cacheMisses   uint64
	simPS         uint64 // simulated time of spanned sessions
	collects      uint64 // committed primed observations
	scalars       uint64 // scalar Collect/CollectMasked calls on a batch-capable channel
	lanes         uint64 // plaintexts primed
	requests      uint64 // coordinator requests served
	shed          uint64 // coordinator requests answered 429
	retries       uint64 // worker round-trips that failed and were retried
}

func (c *counts) add(o counts) {
	c.encryptions += o.encryptions
	c.sessions += o.sessions
	c.cacheAccesses += o.cacheAccesses
	c.cacheMisses += o.cacheMisses
	c.simPS += o.simPS
	c.collects += o.collects
	c.scalars += o.scalars
	c.lanes += o.lanes
	c.requests += o.requests
	c.shed += o.shed
	c.retries += o.retries
}

// tracer keeps every span of a traced run in memory until the run
// ends, when the per-layer metrics and the self-time table are derived
// from it.
type tracer struct {
	epoch time.Time
	// clockNS is the cost of one clock read, taken off each sampled
	// per-observation call (see jobTrace.fold), whose duration is not
	// much longer.
	clockNS int64

	mu         sync.Mutex
	spans      []span
	counts     counts
	samples    map[string][]float64 // lags measured between two boundaries, in ms
	violations []string
	jobs       int32
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), samples: map[string][]float64{}}
	reads := make([]float64, 1001)
	for i := range reads {
		reads[i] = float64(t.now())
	}
	for i := len(reads) - 1; i > 0; i-- {
		reads[i] -= reads[i-1]
	}
	t.clockNS = int64(quantile(reads[1:], 0.5))
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record appends a finished span that is not part of a job trace
// and returns its index.
func (t *tracer) record(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// reserve appends a placeholder for a span whose children may finish
// first on another goroutine (a client request and the handler serving
// it); fill completes it.
func (t *tracer) reserve() int32 { return t.record(span{parent: -1}) }

func (t *tracer) fill(i int32, s span) {
	t.mu.Lock()
	t.spans[i] = s
	t.mu.Unlock()
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) count(f func(*counts)) {
	t.mu.Lock()
	f(&t.counts)
	t.mu.Unlock()
}

// job starts the trace of one job. A job runs on one goroutine, so its
// spans are kept locally and published in one piece by finish.
func (t *tracer) job() *jobTrace {
	t.mu.Lock()
	id := t.jobs
	t.jobs++
	t.mu.Unlock()
	return &jobTrace{t: t, id: id}
}

// jobTrace is the span stack of one job.
type jobTrace struct {
	t          *tracer
	id         int32
	spans      []span
	open       []int32
	counts     counts
	violations []string
}

func (jt *jobTrace) top() int32 {
	if len(jt.open) == 0 {
		return -1
	}
	return jt.open[len(jt.open)-1]
}

// begin opens a span nested in the innermost open one. Like end and
// encrypted, it does nothing on the nil trace of an untraced job.
func (jt *jobTrace) begin(name string) int32 {
	if jt == nil {
		return -1
	}
	i := int32(len(jt.spans))
	jt.spans = append(jt.spans, span{name: name, job: jt.id, parent: jt.top(), start: jt.t.now(), calls: 1})
	jt.open = append(jt.open, i)
	return i
}

// end closes the innermost open span, which must be i.
func (jt *jobTrace) end(i int32) {
	if jt == nil {
		return
	}
	jt.spans[i].dur = jt.t.now() - jt.spans[i].start
	jt.open = jt.open[:len(jt.open)-1]
}

// encrypted counts victim encryptions an attack consumed.
func (jt *jobTrace) encrypted(n uint64) {
	if jt != nil {
		jt.counts.encryptions += n
	}
}

// leaf records one finished call that started at start.
func (jt *jobTrace) leaf(name string, start, items int64) {
	jt.spans = append(jt.spans, span{name: name, job: jt.id, parent: jt.top(),
		start: start, dur: jt.t.now() - start, calls: 1, items: items})
}

// fold counts one call into the previous record when that is the same
// call under the same parent, and opens a new record otherwise. A call
// with start ≥ 0 is a timed sample that just finished: it adds its
// duration, less one clock read, times foldSample, estimating the
// untimed calls' share; an untimed call (start < 0) only counts.
func (jt *jobTrace) fold(name string, start int64) {
	var d int64
	if start >= 0 {
		d = max(jt.t.now()-start-jt.t.clockNS, 0) * foldSample
	}
	p := jt.top()
	if n := len(jt.spans); n > 0 && int32(n-1) != p {
		if last := &jt.spans[n-1]; last.name == name && last.parent == p {
			last.dur += d
			last.calls++
			return
		}
	}
	jt.spans = append(jt.spans, span{name: name, job: jt.id, parent: p, start: start, dur: d, calls: 1})
}

// finish publishes the job's spans, counts and violations.
func (jt *jobTrace) finish() {
	t := jt.t
	t.mu.Lock()
	defer t.mu.Unlock()
	off := int32(len(t.spans))
	for _, s := range jt.spans {
		if s.parent >= 0 {
			s.parent += off
		}
		t.spans = append(t.spans, s)
	}
	t.counts.add(jt.counts)
	t.violations = append(t.violations, jt.violations...)
}

// layerTime is one row of the self-time table.
type layerTime struct {
	name        string
	calls       int64
	total, self int64 // ns
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part its child spans cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur
		}
	}
	rows := map[string]*layerTime{}
	for i, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &layerTime{name: s.name}
			rows[s.name] = r
		}
		r.calls += s.calls
		r.total += s.dur
		r.self += s.dur - child[i]
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// durations returns the duration in ms of every unfolded span of the
// given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.calls == 1 {
			out = append(out, float64(s.dur)/1e6)
		}
	}
	return out
}

// sumPrefix sums the durations and items of every span whose name
// starts with prefix.
func (t *tracer) sumPrefix(prefix string) (dur, items int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if strings.HasPrefix(s.name, prefix) {
			dur += s.dur
			items += s.items
		}
	}
	return dur, items
}

// covered returns how much time since from at least one span of the
// given name was open: the union of their intervals.
func (t *tracer) covered(name string, from int64) int64 {
	t.mu.Lock()
	var iv [][2]int64
	for _, s := range t.spans {
		if s.name == name && s.start >= from {
			iv = append(iv, [2]int64{s.start, s.start + s.dur})
		}
	}
	t.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// lastDuration returns the duration in ms of the latest-starting span
// of the given name that started after from.
func (t *tracer) lastDuration(name string, from int64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := span{start: -1}
	for _, s := range t.spans {
		if s.name == name && s.start >= from && s.start > last.start {
			last = s
		}
	}
	return float64(last.dur) / 1e6
}
