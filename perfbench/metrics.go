package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// endToEndMetrics and layerMetrics list every metric BENCHMARK.json
// declares, in its order; the untraced run prints the first, the
// traced run the second.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"encryptions_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"alloc_kb_per_job", "KiB"},
	{"max_rss_mb", "MiB"},
}

var layerMetrics = []struct{ name, unit string }{
	{"campaign.exec_busy_ratio", "ratio"},
	{"campaign.deliver_lag_ms_p90", "ms"},
	{"campaign.sink_write_us_p50", "us"},
	{"experiments.job_setup_us_p50", "us"},
	{"core.attack_ms_p50", "ms"},
	{"core.attack_ms_p90", "ms"},
	{"core.self_ratio", "ratio"},
	{"core.encryptions_per_job", "count"},
	{"oracle.prime_calls_per_job", "count"},
	{"oracle.prime_us_p50", "us"},
	{"oracle.lanes_per_prime", "count"},
	{"oracle.primed_used_ratio", "ratio"},
	{"oracle.scalar_collects_per_job", "count"},
	{"oracle.self_ratio", "ratio"},
	{"gift.batch64_ns_per_block", "ns"},
	{"host.parallel_ceiling", "ratio"},
	{"soc.session_us_p50", "us"},
	{"soc.session_us_p90", "us"},
	{"soc.sessions_per_job", "count"},
	{"soc.windows_per_session", "count"},
	{"soc.self_ratio", "ratio"},
	{"cache.accesses_per_session", "count"},
	{"cache.miss_ratio", "ratio"},
	{"sim.sim_us_per_session", "us"},
	{"sim.host_per_sim_ratio", "ratio"},
	{"campaignd.results_ms_p50", "ms"},
	{"campaignd.results_ms_p90", "ms"},
	{"campaignd.lease_ms_p50", "ms"},
	{"campaignd.complete_ms_p50", "ms"},
	{"campaignd.requests_per_job", "count"},
	{"campaignd.request_kb_per_job", "KiB"},
	{"campaignd.shed_ratio", "ratio"},
	{"campaignd.busy_ratio", "ratio"},
	{"campaignd.merge_ms", "ms"},
	{"campaignd.journal_kb_per_job", "KiB"},
	{"worker.exec_busy_ratio", "ratio"},
	{"worker.ack_lag_ms_p90", "ms"},
	{"worker.retries_per_job", "count"},
	{"worker.idle_ms", "ms"},
	{"runtime.gc_cycles_per_job", "count"},
	{"runtime.heap_peak_mb", "MiB"},
	{"trace.overhead_ratio", "ratio"},
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd derives the untraced metrics of a run. Rates and per-job
// costs are totals over the whole window: on a shared host whose speed
// flips between states within seconds, a total averages the states
// where a median of per-pass figures would jump between them.
// failRatio is printed with them but is not in BENCHMARK.json: it is 0
// on every healthy run, and the result line carries attempted and
// failed instead.
func endToEnd(setups []float64, w window, maxRSSKiB int64) (ms []metric, failRatio metric) {
	var wall, cpu time.Duration
	var encs, alloc uint64
	for _, p := range w.passes {
		wall += p.wall
		cpu += p.cpu
		encs += p.encryptions
		alloc += p.allocBytes
	}
	jobs := float64(w.jobs)
	ms = []metric{
		{value: quantile(setups, 0.5), samples: len(setups)},
		{value: jobs / wall.Seconds(), samples: w.jobs},
		{value: float64(encs) / wall.Seconds(), samples: w.jobs},
		{value: quantile(w.durs, 0.5), samples: len(w.durs)},
		{value: quantile(w.durs, 0.9), samples: len(w.durs)},
		{value: float64(cpu) / 1e6 / jobs, samples: w.jobs},
		{value: float64(alloc) / 1024 / jobs, samples: w.jobs},
		{value: float64(maxRSSKiB) / 1024, samples: 1},
	}
	for i, d := range endToEndMetrics {
		ms[i].name, ms[i].unit = d.name, d.unit
	}
	return ms, metric{name: "fail_ratio", unit: "ratio", value: ratio(float64(w.failed), jobs), samples: w.jobs}
}

// perLayer derives the traced metrics from the traced window's spans
// and counts; runtime.* come from the untraced window u, and the host
// figures from the calibration runs. On the fleet the pool's busy time
// is the worker's, elsewhere campaign.Run's.
func perLayer(t *tracer, tw, u window, cal []calibration, fleetRun bool) []metric {
	jobs := float64(tw.jobs)
	self := map[string]int64{}
	total := map[string]int64{}
	for _, r := range t.selfTimes() {
		layer := r.name[:strings.IndexByte(r.name, '.')]
		self[layer] += r.self
		total[r.name] = r.total
	}
	execNS := float64(total["campaign.exec"])
	capacityNS := float64(tw.wall) * poolWorkers
	c := t.counts
	sessionSpans := float64(len(t.durations("soc.session")))
	_, windows := t.sumPrefix("soc.session")
	coordNS, requestBytes := t.sumPrefix("campaignd.")

	ms := func(name string) []float64 { return t.durations(name) }
	us := func(name string) []float64 {
		d := t.durations(name)
		for i := range d {
			d[i] *= 1000
		}
		return d
	}
	var calNS, calCeil float64
	for _, k := range cal {
		calNS += k.nsPerBlock / float64(len(cal))
		calCeil += k.ceiling / float64(len(cal))
	}
	var campaignBusy, workerBusy float64
	if fleetRun {
		workerBusy = execNS / capacityNS
	} else {
		campaignBusy = execNS / capacityNS
	}
	requests := float64(c.requests)

	values := map[string]float64{
		"campaign.exec_busy_ratio":       campaignBusy,
		"campaign.deliver_lag_ms_p90":    quantile(t.samples["campaign.deliver_lag"], 0.9),
		"campaign.sink_write_us_p50":     quantile(us("campaign.sink"), 0.5),
		"experiments.job_setup_us_p50":   quantile(us("experiments.setup"), 0.5),
		"core.attack_ms_p50":             quantile(ms("core.attack"), 0.5),
		"core.attack_ms_p90":             quantile(ms("core.attack"), 0.9),
		"core.self_ratio":                ratio(float64(self["core"]), execNS),
		"core.encryptions_per_job":       float64(c.encryptions) / jobs,
		"oracle.prime_calls_per_job":     float64(len(t.durations("oracle.prime"))) / jobs,
		"oracle.prime_us_p50":            quantile(us("oracle.prime"), 0.5),
		"oracle.lanes_per_prime":         ratio(float64(c.lanes), float64(len(t.durations("oracle.prime")))),
		"oracle.primed_used_ratio":       ratio(float64(c.collects), float64(c.lanes)),
		"oracle.scalar_collects_per_job": float64(c.scalars) / jobs,
		"oracle.self_ratio":              ratio(float64(self["oracle"]), execNS),
		"gift.batch64_ns_per_block":      calNS,
		"host.parallel_ceiling":          calCeil,
		"soc.session_us_p50":             quantile(us("soc.session"), 0.5),
		"soc.session_us_p90":             quantile(us("soc.session"), 0.9),
		"soc.sessions_per_job":           float64(c.sessions) / jobs,
		"soc.windows_per_session":        ratio(float64(windows), sessionSpans),
		"soc.self_ratio":                 ratio(float64(self["soc"]), execNS),
		"cache.accesses_per_session":     ratio(float64(c.cacheAccesses), sessionSpans),
		"cache.miss_ratio":               ratio(float64(c.cacheMisses), float64(c.cacheAccesses)),
		"sim.sim_us_per_session":         ratio(float64(c.simPS)/1e6, sessionSpans),
		"sim.host_per_sim_ratio":         ratio(float64(total["soc.session"]), float64(c.simPS)/1e3),
		"campaignd.results_ms_p50":       quantile(ms("campaignd.results"), 0.5),
		"campaignd.results_ms_p90":       quantile(ms("campaignd.results"), 0.9),
		"campaignd.lease_ms_p50":         quantile(ms("campaignd.lease"), 0.5),
		"campaignd.complete_ms_p50":      quantile(ms("campaignd.complete"), 0.5),
		"campaignd.requests_per_job":     requests / jobs,
		"campaignd.request_kb_per_job":   float64(requestBytes) / 1024 / jobs,
		"campaignd.shed_ratio":           ratio(float64(c.shed), requests),
		"campaignd.busy_ratio":           float64(coordNS) / float64(tw.wall),
		"campaignd.merge_ms":             quantile(tw.mergeMS, 0.5),
		"campaignd.journal_kb_per_job":   float64(tw.journalBytes) / 1024 / jobs,
		"worker.exec_busy_ratio":         workerBusy,
		"worker.ack_lag_ms_p90":          quantile(t.samples["worker.ack_lag"], 0.9),
		"worker.retries_per_job":         float64(c.retries) / jobs,
		"worker.idle_ms":                 quantile(tw.idleMS, 0.5),
		"runtime.gc_cycles_per_job":      float64(u.gcCycles) / float64(u.jobs),
		"runtime.heap_peak_mb":           float64(u.heapPeak) / (1 << 20),
		"trace.overhead_ratio":           (jobs / tw.wall.Seconds()) / (float64(u.jobs) / u.wall.Seconds()),
	}
	out := make([]metric, len(layerMetrics))
	for i, d := range layerMetrics {
		out[i] = metric{name: d.name, unit: d.unit, value: values[d.name], samples: tw.jobs}
	}
	return out
}

// writeMetrics prints metrics as an aligned table.
func writeMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
}

// writeSelfTimes prints the self-time table of a traced window: per
// span name its calls, total and self time, with self time as a share
// of the pool's capacity (wall time × pool workers). The residual is
// the capacity no job span covers: dispatch, delivery and idle slots.
// Coordinator and worker request spans run on goroutines of their own,
// so on the fleet their shares overlap the pool's.
func writeSelfTimes(w io.Writer, t *tracer, wall time.Duration) {
	capacity := float64(wall) * poolWorkers
	fmt.Fprintf(w, "self time (traced window, capacity %.1f ms = wall × %d workers)\n", capacity/1e6, poolWorkers)
	fmt.Fprintf(w, "  %-24s %12s %12s %12s %8s\n", "span", "calls", "total_ms", "self_ms", "share")
	var exec int64
	for _, r := range t.selfTimes() {
		if r.name == "campaign.exec" {
			exec = r.total
		}
		fmt.Fprintf(w, "  %-24s %12d %12.2f %12.2f %7.2f%%\n",
			r.name, r.calls, float64(r.total)/1e6, float64(r.self)/1e6, 100*float64(r.self)/capacity)
	}
	residual := capacity - float64(exec)
	fmt.Fprintf(w, "  %-24s %12s %12s %12.2f %7.2f%%\n", "residual", "", "", residual/1e6, 100*residual/capacity)
}
