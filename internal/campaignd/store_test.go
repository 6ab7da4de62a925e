package campaignd

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grinch/internal/campaign"
)

func storeResult(job int) campaign.Result {
	return campaign.Result{Job: job, Seed: uint64(100 + job),
		Point:       campaign.Point{Kind: "toy", Trial: job},
		Measurement: campaign.Measurement{Encryptions: uint64(7 * job)}}
}

// appendRaw appends bytes to a closed journal file, standing in for
// what a hard kill or a bad disk leaves behind.
func appendRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardJournalTornTailReopen: a hard kill leaves a final record
// without its newline. Reopening must cut the fragment off before
// appending, or the next record is glued onto it and the reload after
// that silently drops the job.
func TestShardJournalTornTailReopen(t *testing.T) {
	dir := t.TempDir()
	rng := ShardRange{Shard: 0, Start: 0, End: 8}
	j, _, err := openShardJournal(dir, "c1", "fp", rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []int{0, 1} {
		if err := j.Append(storeResult(job)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	appendRaw(t, shardJournalPath(dir, 0), `{"job":2,"poi`)

	j, prior, err := openShardJournal(dir, "c1", "fp", rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 2 {
		t.Fatalf("first reopen: %d prior results, want 2 (the torn job re-runs)", len(prior))
	}
	if err := j.Append(storeResult(3)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j, prior, err = openShardJournal(dir, "c1", "fp", rng)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, job := range []int{0, 1, 3} {
		if _, ok := prior[job]; !ok {
			t.Errorf("reload lost job %d (have %d results)", job, len(prior))
		}
	}
	if len(prior) != 3 {
		t.Errorf("reload: %d results, want 3", len(prior))
	}
}

// TestShardJournalTornHeaderNewline: a header whose newline was lost
// still parses; reopening terminates it instead of truncating it away.
func TestShardJournalTornHeaderNewline(t *testing.T) {
	dir := t.TempDir()
	rng := ShardRange{Shard: 2, Start: 4, End: 8}
	hdr, _ := json.Marshal(shardJournalHeader{Campaign: "c1", Fingerprint: "fp", Shard: 2, Start: 4, End: 8})
	if err := os.WriteFile(shardJournalPath(dir, 2), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	j, _, err := openShardJournal(dir, "c1", "fp", rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(storeResult(5)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j, prior, err := openShardJournal(dir, "c1", "fp", rng)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, ok := prior[5]; !ok || len(prior) != 1 {
		t.Fatalf("reload after an unterminated header: %v, want job 5 only", prior)
	}
}

// TestIngestJournalBytesMatchPerRecordAppends: Ingest stages a batch's
// fresh canonical lines and writes them once; the file must hold
// exactly the bytes one Append per fresh record would have written,
// with duplicates (already ingested, or repeated inside the batch)
// skipped.
func TestIngestJournalBytesMatchPerRecordAppends(t *testing.T) {
	dir := t.TempDir()
	spec := campaign.Spec{Name: "journal-bytes", Kind: "toy", Seed: 3, Trials: 12}
	srv, err := NewServer(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub, err := srv.Submit(SubmitRequest{Spec: spec, ShardSize: 12})
	if err != nil {
		t.Fatal(err)
	}
	l := srv.Acquire("w").Lease
	withTiming := func(job int) campaign.Result {
		r := storeResult(job)
		r.DurationNS, r.Worker = int64(1000+job), 1
		return r
	}
	batches := [][]campaign.Result{
		{withTiming(0), withTiming(1), withTiming(2)},
		{withTiming(1), withTiming(3), withTiming(3), withTiming(4), withTiming(0)},
		{withTiming(2)},
		{withTiming(5), withTiming(6)},
	}
	for i, b := range batches {
		if err := srv.Ingest(l.ID, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}

	refDir := t.TempDir()
	ref, _, err := openShardJournal(refDir, sub.ID, spec.Fingerprint(), l.ShardRange)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []int{0, 1, 2, 3, 4, 5, 6} {
		if err := ref.Append(storeResult(job)); err != nil {
			t.Fatal(err)
		}
	}
	ref.Close()
	want, err := os.ReadFile(shardJournalPath(refDir, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(shardJournalPath(filepath.Join(dir, sub.ID), 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal bytes differ from per-record appends:\n got %q\nwant %q", got, want)
	}
	if st, _ := srv.Status(sub.ID); st.Done != 7 {
		t.Errorf("status done = %d, want 7", st.Done)
	}
}

// TestShardJournalRejectsMidFileCorruption: a newline-terminated line
// that does not parse is damage, not a torn tail; opening fails and
// names the file instead of skipping the line.
func TestShardJournalRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	rng := ShardRange{Shard: 0, Start: 0, End: 8}
	j, _, err := openShardJournal(dir, "c1", "fp", rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(storeResult(0)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := shardJournalPath(dir, 0)
	appendRaw(t, path, "garbage\n{\"job\":1}\n")

	j, _, err = openShardJournal(dir, "c1", "fp", rng)
	if err == nil {
		j.Close()
		t.Fatal("shard journal with a corrupt middle line opened")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the journal file", err)
	}
}
