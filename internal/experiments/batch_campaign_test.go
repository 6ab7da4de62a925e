package experiments

import (
	"bytes"
	"context"
	"testing"

	"grinch/internal/campaign"
	"grinch/internal/obs"
	"grinch/internal/obs/metrics"
)

// These tests are the campaign-level half of the batched-pipeline
// differential contract (the core-level half lives in
// internal/core/batch_test.go): the same seeded spec, run once on the
// default batched path and once with Spec.ScalarPath forcing the
// scalar reference pipeline, must emit byte-identical artifacts —
// result JSONL, result CSV, trace JSONL, the deterministic metrics
// exposition, and the rendered paper tables. Anything the batch path
// changes — rng draw order, observation order, retry accounting,
// counter totals — would surface as a byte diff here.

// campaignArtifacts bundles every deterministic byte stream one
// campaign run emits.
type campaignArtifacts struct {
	jsonl, csv, trace, prom []byte
	results                 []campaign.Result
}

// runCampaignArtifacts executes spec and captures the full artifact
// set: result JSONL and CSV from the streaming sinks, the trace JSONL
// from a run-wide writer, and the wall-quarantine-filtered Prometheus
// exposition of the run's campaign.Metrics registry.
func runCampaignArtifacts(t *testing.T, spec campaign.Spec, workers int) campaignArtifacts {
	t.Helper()
	var jb, cb, tb bytes.Buffer
	tw := obs.NewWriter(&tb)
	m := campaign.NewMetrics()
	col := &campaign.Collector{}
	if _, err := campaign.Run(context.Background(), spec, Execute, campaign.Options{
		Workers: workers,
		Sinks:   []campaign.Sink{&campaign.JSONLSink{W: &jb}, &campaign.CSVSink{W: &cb}, col},
		Trace:   tw,
		Metrics: m,
	}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	var pb bytes.Buffer
	if err := metrics.WriteProm(&pb, metrics.Deterministic(m.Registry().Snapshot())); err != nil {
		t.Fatal(err)
	}
	return campaignArtifacts{
		jsonl:   jb.Bytes(),
		csv:     cb.Bytes(),
		trace:   tb.Bytes(),
		prom:    pb.Bytes(),
		results: col.Results,
	}
}

// diffArtifacts asserts byte equality of every artifact stream and
// fails with the first differing line on mismatch.
func diffArtifacts(t *testing.T, name string, batch, scalar campaignArtifacts) {
	t.Helper()
	check := func(kind string, b, s []byte) {
		t.Helper()
		if bytes.Equal(b, s) {
			return
		}
		bl := bytes.Split(b, []byte("\n"))
		sl := bytes.Split(s, []byte("\n"))
		for i := 0; i < len(bl) && i < len(sl); i++ {
			if !bytes.Equal(bl[i], sl[i]) {
				t.Fatalf("%s: %s diverges at line %d:\n  batch:  %s\n  scalar: %s",
					name, kind, i+1, bl[i], sl[i])
			}
		}
		t.Fatalf("%s: %s differs in length: batch %d lines, scalar %d lines",
			name, kind, len(bl), len(sl))
	}
	check("result JSONL", batch.jsonl, scalar.jsonl)
	check("result CSV", batch.csv, scalar.csv)
	check("trace JSONL", batch.trace, scalar.trace)
	check("metrics exposition", batch.prom, scalar.prom)
	if len(batch.trace) == 0 {
		t.Fatalf("%s: trace stream is empty — the differential proves nothing", name)
	}
}

// TestBatchCampaignFig3ByteIdentical runs a small seeded Fig. 3 grid
// (flush on and off, the paper's 1-word line) on both pipelines and
// compares every artifact plus the rendered Fig. 3 CSV.
func TestBatchCampaignFig3ByteIdentical(t *testing.T) {
	opt := Options{Trials: 2, Seed: 11, Budget: 50000}
	probeRounds := []int{1, 2}
	spec := Fig3Spec(opt, probeRounds)
	scalarSpec := spec
	scalarSpec.ScalarPath = true

	batch := runCampaignArtifacts(t, spec, 1)
	scalar := runCampaignArtifacts(t, scalarSpec, 1)
	diffArtifacts(t, "fig3", batch, scalar)

	bCSV := Fig3CSV(Fig3FromResults(opt, probeRounds, batch.results))
	sCSV := Fig3CSV(Fig3FromResults(opt, probeRounds, scalar.results))
	if bCSV != sCSV {
		t.Fatalf("fig3: rendered CSV diverges:\nbatch:\n%s\nscalar:\n%s", bCSV, sCSV)
	}
}

// TestBatchCampaignTable1ByteIdentical covers the wide-line demux
// variants: line widths 1 and 2 exercise the 16- and 8-way bitsliced
// line accumulators against the scalar nibble walk.
func TestBatchCampaignTable1ByteIdentical(t *testing.T) {
	opt := Options{Trials: 2, Seed: 23, Budget: 50000}
	lineWords := []int{1, 2}
	probeRounds := []int{1, 2}
	spec := Table1Spec(opt, lineWords, probeRounds)
	scalarSpec := spec
	scalarSpec.ScalarPath = true

	// Different worker counts on purpose: the scalar run must match the
	// batched run byte for byte regardless of scheduling, which is the
	// composition of the batch differential with the worker-count
	// determinism contract.
	batch := runCampaignArtifacts(t, spec, 1)
	scalar := runCampaignArtifacts(t, scalarSpec, 4)
	diffArtifacts(t, "table1", batch, scalar)

	bCSV := Table1CSV(Table1FromResults(opt, lineWords, probeRounds, batch.results), probeRounds)
	sCSV := Table1CSV(Table1FromResults(opt, lineWords, probeRounds, scalar.results), probeRounds)
	if bCSV != sCSV {
		t.Fatalf("table1: rendered CSV diverges:\nbatch:\n%s\nscalar:\n%s", bCSV, sCSV)
	}
}

// TestBatchCampaignFaultedByteIdentical runs the faulted full-recovery
// campaign (structured fault plans, retry policy, budget small enough
// that jobs degrade into PartialResults) on both pipelines. Faulted
// jobs wrap the oracle in a faults.Injector, which only implements the
// scalar probe.Channel — the attack core's capability probe must
// detect that and fall back, so this differential proves the whole
// fault/retry/partial-result surface is batch-invariant end to end.
func TestBatchCampaignFaultedByteIdentical(t *testing.T) {
	spec := faultedRecoverySpec()
	scalarSpec := spec
	scalarSpec.ScalarPath = true

	batch := runCampaignArtifacts(t, spec, 1)
	scalar := runCampaignArtifacts(t, scalarSpec, 1)
	diffArtifacts(t, "faulted-recovery", batch, scalar)

	// The faulted campaign only proves something if the budget really
	// forced structured degradation somewhere in the grid.
	partial := false
	for _, r := range batch.results {
		if r.Partial {
			partial = true
			break
		}
	}
	if !partial {
		t.Fatal("faulted-recovery: no job degraded to a PartialResult; raise fault intensity or cut the budget")
	}
}
