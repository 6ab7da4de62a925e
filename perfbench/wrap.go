package main

import (
	"encoding/json"
	"io"
	"net/http"
	"path"
	"strconv"
	"sync"
	"time"

	"grinch/internal/campaign"
	"grinch/internal/obs"
	"grinch/internal/probe"
	"grinch/internal/soc"
)

// The wrappers below time calls into the program's public interfaces
// from outside the program. Each is installed only in a traced run.

// timedChannel times a probe.Channel. Each Collect is one span, so
// the platform sessions it runs nest under it.
type timedChannel struct {
	ch probe.Channel
	jt *jobTrace
	// Span names, built once: "<layer>.collect", ".scalar", ".prime".
	collect, scalar, prime string
}

func (c *timedChannel) Collect(pt uint64, targetRound int) probe.LineSet {
	i := c.jt.begin(c.collect)
	set := c.ch.Collect(pt, targetRound)
	c.jt.end(i)
	return set
}

func (c *timedChannel) Lines() int          { return c.ch.Lines() }
func (c *timedChannel) Encryptions() uint64 { return c.ch.Encryptions() }

// timedBatchChannel times a channel that implements both
// probe.MaskedChannel and probe.BatchChannel, and implements both
// itself, so the attack core keeps taking the batch path through it.
// Per-observation calls (tens of ns each, one per victim encryption)
// are all counted but only one in foldSample is timed, so the clock
// reads do not swamp what they measure; their records are folded into
// one per run of consecutive calls.
type timedBatchChannel struct {
	timedChannel
	masked probe.MaskedChannel
	batch  probe.BatchChannel
	n      int
}

// foldSample is how many per-observation calls share one timed call.
const foldSample = 16

// timed reports whether the next per-observation call is the sampled one.
func (c *timedBatchChannel) timed() bool {
	c.n++
	return c.n%foldSample == 0
}

func (c *timedBatchChannel) Collect(pt uint64, targetRound int) probe.LineSet {
	c.jt.counts.scalars++
	if !c.timed() {
		c.jt.fold(c.scalar, -1)
		return c.ch.Collect(pt, targetRound)
	}
	start := c.jt.t.now()
	set := c.ch.Collect(pt, targetRound)
	c.jt.fold(c.scalar, start)
	return set
}

func (c *timedBatchChannel) CollectMasked(pt uint64, targetRound int) (set, mask probe.LineSet) {
	c.jt.counts.scalars++
	if !c.timed() {
		c.jt.fold(c.scalar, -1)
		return c.masked.CollectMasked(pt, targetRound)
	}
	start := c.jt.t.now()
	set, mask = c.masked.CollectMasked(pt, targetRound)
	c.jt.fold(c.scalar, start)
	return set, mask
}

func (c *timedBatchChannel) PrimeBatch(pts []uint64, targetRound int, raw []probe.LineSet) bool {
	start := c.jt.t.now()
	ok := c.batch.PrimeBatch(pts, targetRound, raw)
	n := int64(0)
	if ok {
		n = int64(len(pts))
	}
	c.jt.leaf(c.prime, start, n)
	c.jt.counts.lanes += uint64(n)
	return ok
}

func (c *timedBatchChannel) CollectPrimed(raw probe.LineSet, targetRound int) (set, mask probe.LineSet) {
	c.jt.counts.collects++
	if !c.timed() {
		c.jt.fold(c.collect, -1)
		return c.batch.CollectPrimed(raw, targetRound)
	}
	start := c.jt.t.now()
	set, mask = c.batch.CollectPrimed(raw, targetRound)
	c.jt.fold(c.collect, start)
	return set, mask
}

// wrapChannel returns ch itself when jt is nil, and otherwise a timing
// wrapper with the same batch capabilities as ch.
func wrapChannel(ch probe.Channel, jt *jobTrace, layer string) probe.Channel {
	if jt == nil {
		return ch
	}
	tc := timedChannel{ch: ch, jt: jt, collect: layer + ".collect", scalar: layer + ".scalar", prime: layer + ".prime"}
	masked, isMasked := ch.(probe.MaskedChannel)
	batch, isBatch := ch.(probe.BatchChannel)
	switch {
	case isMasked && isBatch:
		return &timedBatchChannel{timedChannel: tc, masked: masked, batch: batch}
	case isMasked || isBatch:
		// No channel of the program has only one of the two; a wrapper
		// for it would hide the other from the attack core.
		panic("perfbench: channel implements only one of MaskedChannel and BatchChannel")
	}
	return &tc
}

// timedPlatform times a soc.Platform: one span per session, with the
// session's cache counters and simulated time counted alongside.
type timedPlatform struct {
	soc.Platform
	jt *jobTrace
}

func wrapPlatform(p soc.Platform, jt *jobTrace) soc.Platform {
	if jt == nil {
		return p
	}
	return &timedPlatform{Platform: p, jt: jt}
}

func (p *timedPlatform) RunSession(pt uint64) soc.Session {
	start := p.jt.t.now()
	s := p.Platform.RunSession(pt)
	p.session(start, s)
	return s
}

func (p *timedPlatform) RunSessionUntil(pt uint64, probeUntilRound int) soc.Session {
	start := p.jt.t.now()
	s := p.Platform.RunSessionUntil(pt, probeUntilRound)
	p.session(start, s)
	return s
}

func (p *timedPlatform) session(start int64, s soc.Session) {
	p.jt.leaf("soc.session", start, int64(len(s.Windows)))
	c := &p.jt.counts
	c.sessions++
	c.cacheAccesses += s.CacheStats.Accesses
	c.cacheMisses += s.CacheStats.Misses
	if n := len(s.Windows); n > 0 {
		c.simPS += uint64(s.Windows[n-1].At)
	}
}

// EarliestProbeRound runs the race's own session inside the platform,
// out of the wrapper's sight; it is spanned whole and its sessions are
// counted from the platform's counter.
func (p *timedPlatform) EarliestProbeRound() int {
	before := p.Sessions()
	i := p.jt.begin("soc.race")
	r := p.Platform.EarliestProbeRound()
	p.jt.end(i)
	p.jt.counts.sessions += p.Sessions() - before
	return r
}

// jobFunc runs one job; jt is nil in an untraced run.
type jobFunc func(campaign.Job, *jobTrace) (campaign.Measurement, error)

// jobClock wraps a jobFunc into a campaign.Executor that records each
// job's executor wall time. In a traced run it also opens the job's
// root span and notes when the executor returned, by job index, so
// the delivery and acknowledgement lags can be measured downstream.
type jobClock struct {
	t *tracer

	mu   sync.Mutex
	durs []float64 // ms
	ends []int64   // ns since t.epoch, by job index; traced only
}

func newJobClock(t *tracer, jobs int) *jobClock {
	c := &jobClock{t: t}
	if t != nil {
		c.ends = make([]int64, jobs)
	}
	return c
}

func (c *jobClock) executor(run jobFunc) campaign.Executor {
	return func(job campaign.Job, _ obs.Tracer) (campaign.Measurement, error) {
		var jt *jobTrace
		var root int32
		if c.t != nil {
			jt = c.t.job()
			root = jt.begin("campaign.exec")
		}
		start := time.Now()
		m, err := run(job, jt)
		d := time.Since(start)
		if jt != nil {
			jt.end(root)
			// Each index is written by the one worker running the job
			// and read after the result has passed the pool's channels.
			c.ends[job.Index] = c.t.now()
			jt.finish()
		}
		c.mu.Lock()
		c.durs = append(c.durs, float64(d)/1e6)
		c.mu.Unlock()
		return m, err
	}
}

// timedSink times a campaign.Sink's Write and the lag from the job's
// executor returning to its result reaching the sink.
type timedSink struct {
	campaign.Sink
	clock *jobClock
}

func (s *timedSink) Write(r campaign.Result) error {
	t := s.clock.t
	start := t.now()
	t.sample("campaign.deliver_lag", float64(start-s.clock.ends[r.Job])/1e6)
	err := s.Sink.Write(r)
	t.record(span{name: "campaign.sink", job: -1, parent: -1, start: start, dur: t.now() - start, calls: 1})
	return err
}

// spanHeader carries a worker request's span index to the coordinator,
// so the handler's span nests under the request that caused it.
const spanHeader = "X-Perfbench-Span"

// timedHandler times the coordinator's http.Handler per request.
type timedHandler struct {
	h http.Handler
	t *tracer
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.t.now()
	parent := int32(-1)
	if v, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
		parent = int32(v)
	}
	body := &countingBody{ReadCloser: r.Body}
	r.Body = body
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	h.h.ServeHTTP(sw, r)
	h.t.record(span{name: "campaignd." + path.Base(r.URL.Path), job: -1, parent: parent,
		start: start, dur: h.t.now() - start, calls: 1, items: body.n})
	h.t.count(func(c *counts) {
		c.requests++
		if sw.code == http.StatusTooManyRequests {
			c.shed++
		}
	})
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// timedTransport times the worker's requests. A results request that
// the coordinator acknowledges closes the acknowledgement lag of every
// job it carries; a failed attempt is one the client retries.
type timedTransport struct {
	rt    http.RoundTripper
	t     *tracer
	clock *jobClock
}

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	i := tt.t.reserve()
	start := tt.t.now()
	name := path.Base(req.URL.Path)
	var jobs []int
	if name == "results" && req.GetBody != nil {
		jobs = reportedJobs(req)
	}
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.Itoa(int(i)))
	resp, err := tt.rt.RoundTrip(out)
	end := tt.t.now()
	tt.t.fill(i, span{name: "worker." + name, job: -1, parent: -1, start: start, dur: end - start, calls: 1})
	switch {
	case err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		tt.t.count(func(c *counts) { c.retries++ })
	case resp.StatusCode == http.StatusOK:
		for _, j := range jobs {
			tt.t.sample("worker.ack_lag", float64(end-tt.clock.ends[j])/1e6)
		}
	}
	return resp, err
}

// reportedJobs decodes the job indices of a results request from a
// copy of its body.
func reportedJobs(req *http.Request) []int {
	body, err := req.GetBody()
	if err != nil {
		return nil
	}
	defer body.Close()
	var rep struct {
		Results []struct {
			Job int `json:"job"`
		} `json:"results"`
	}
	if json.NewDecoder(body).Decode(&rep) != nil {
		return nil
	}
	jobs := make([]int, len(rep.Results))
	for k, r := range rep.Results {
		jobs[k] = r.Job
	}
	return jobs
}
