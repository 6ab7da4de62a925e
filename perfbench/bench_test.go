package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"grinch/internal/bitutil"
	"grinch/internal/campaign"
	"grinch/internal/core"
	"grinch/internal/experiments"
	"grinch/internal/oracle"
	"grinch/internal/probe"
	"grinch/internal/soc"
)

var testKey = bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}

// The timing wrapper of a batch-capable channel must stay batch-capable,
// or the attack core would silently take the scalar path under tracing.
func TestChannelWrapperKeepsBatchPath(t *testing.T) {
	o, err := oracle.New(testKey, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	jt := newTracer().job()
	ch := wrapChannel(o, jt, "oracle")
	if _, ok := ch.(probe.BatchChannel); !ok {
		t.Fatal("wrapped oracle is not a probe.BatchChannel")
	}
	if _, ok := ch.(probe.MaskedChannel); !ok {
		t.Fatal("wrapped oracle is not a probe.MaskedChannel")
	}
	a, err := core.NewAttacker(ch, core.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AttackRound(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if c := jt.counts; c.lanes == 0 || c.collects == 0 || c.scalars != 0 {
		t.Fatalf("attack through the wrapper: %d lanes primed, %d primed collects, %d scalar collects; want the batch path only",
			c.lanes, c.collects, c.scalars)
	}

	pc := &soc.PlatformChannel{P: soc.NewSingleSoC(testKey, soc.DefaultParams(10)), LineBytes: 1}
	if _, ok := wrapChannel(pc, jt, "soc").(probe.BatchChannel); ok {
		t.Fatal("wrapped platform channel claims probe.BatchChannel")
	}
}

// The scalar-fallback sentinel counts what it should: an attack forced
// onto the scalar path shows scalar collects through the wrapper.
func TestChannelWrapperCountsScalarFallback(t *testing.T) {
	o, err := oracle.New(testKey, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	jt := newTracer().job()
	a, err := core.NewAttacker(wrapChannel(o, jt, "oracle"), core.Config{Seed: 4, Batch: core.BatchOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AttackRound(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if jt.counts.scalars != o.Encryptions() {
		t.Fatalf("scalar collects = %d, want one per encryption (%d)", jt.counts.scalars, o.Encryptions())
	}
}

// For a sample of every workload's jobs, the traced executor, which
// rebuilds each job to wrap its channel and platform, measures exactly
// what the untraced one does.
func TestTracedMeasurementsMatchUntraced(t *testing.T) {
	specs := append(attackGridSpecs(7, 1, 2, gridBudget), platformSpecs(7, 1, 1)...)
	specs = append(specs, fleetSpec(7, 4))
	tr := newTracer()
	for _, spec := range specs {
		for _, job := range spec.Jobs() {
			var want campaign.Measurement
			var err error
			if job.Point.Kind == kindPlatformEffort {
				want, err = platformEffort(job, nil)
			} else {
				want, err = experiments.Execute(job, nil)
			}
			if err != nil {
				t.Fatalf("%s job %d untraced: %v", spec.Name, job.Index, err)
			}
			jt := tr.job()
			got, err := execute(job, jt)
			if err != nil {
				t.Fatalf("%s job %d traced: %v", spec.Name, job.Index, err)
			}
			jt.finish()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s job %d (%s): traced %+v, untraced %+v", spec.Name, job.Index, job.Point, got, want)
			}
		}
	}
	if len(tr.violations) > 0 {
		t.Errorf("round-1 truth violations: %v", tr.violations)
	}
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// Every metric BENCHMARK.json declares has a well-formed name and is
// the one the benchmark computes, and a run prints exactly those names.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	compare := func(what string, got []declared, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark computes %d", what, len(got), len(want))
		}
		for i, d := range got {
			if !valid.MatchString(d.Name) {
				t.Errorf("%s: metric name %q does not match %s", what, d.Name, valid)
			}
			if d.Name != want[i].name || d.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", what, i, d.Name, d.Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, endToEndMetrics)
	compare("per_layer", bench.PerLayer, layerMetrics)
	for i, w := range bench.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the benchmark has %v", i, w.Name, workloadNames)
		}
	}

	if testing.Short() {
		t.Skip("runs every workload")
	}
	names := func(ds []declared) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range workloadNames {
		out, err := run(config{workload: w, seed: 1, seconds: 2 * time.Second, trace: true, workdir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		for _, trace := range []bool{false, true} {
			b, err := out.resultLine(trace)
			if err != nil {
				t.Fatal(err)
			}
			var line struct {
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(b, &line); err != nil {
				t.Fatal(err)
			}
			var printed []string
			for name := range line.Metrics {
				printed = append(printed, name)
			}
			sort.Strings(printed)
			want := names(bench.EndToEnd)
			if trace {
				want = names(bench.PerLayer)
			}
			if !reflect.DeepEqual(printed, want) {
				t.Errorf("%s trace=%t prints %v, BENCHMARK.json declares %v", w, trace, printed, want)
			}
		}
	}
}
