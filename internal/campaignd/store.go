package campaignd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"grinch/internal/campaign"
	"grinch/internal/journal"
)

// The on-disk layout under the server's data directory:
//
//	<data>/<campaign-id>/campaign.json     — the SubmitRequest, replayable
//	<data>/<campaign-id>/shard-<n>.journal — one shard's result journal
//	<data>/<campaign-id>/<out>, <csv>      — merged output (paths from the submit)
//
// A shard journal (internal/journal) is the distributed analogue of
// cmd/campaign's checkpoint journal: a header line pinning (campaign
// fingerprint, shard range), then one canonical campaign.Result JSON
// line per ingested job. Because results are pure functions of (spec,
// index), journal lines never need rewriting — re-ingestion after a
// lease re-issue is dropped as a duplicate. A torn trailing line from
// a server kill is cut off on reload (that job re-runs); a corrupt
// line anywhere else fails the load.
//
// Restart recovery: LoadState replays campaign.json + the shard
// journals of every campaign directory, so a coordinator restart
// resumes every campaign mid-shard with nothing lost but unreported
// in-flight work on the workers (which re-executes — deterministically
// — under fresh leases).

// shardJournalHeader pins a journal file to one (campaign, shard).
type shardJournalHeader struct {
	Campaign    string `json:"campaign"`
	Fingerprint string `json:"fingerprint"`
	Shard       int    `json:"shard"`
	Start       int    `json:"start"`
	End         int    `json:"end"`
}

func shardJournalPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.journal", shard))
}

// openShardJournal opens (creating if absent) the journal for one
// shard and returns the results it already holds inside the shard's
// range, canonicalised and keyed by job index.
func openShardJournal(dir, campaignID, fingerprint string, rng ShardRange) (*journal.Journal[campaign.Result], map[int]campaign.Result, error) {
	path := shardJournalPath(dir, rng.Shard)
	want := shardJournalHeader{Campaign: campaignID, Fingerprint: fingerprint,
		Shard: rng.Shard, Start: rng.Start, End: rng.End}
	j, recs, err := journal.Open[campaign.Result](path, want, func(got shardJournalHeader) error {
		if got.Fingerprint != fingerprint || got.Shard != rng.Shard || got.Start != rng.Start || got.End != rng.End {
			return fmt.Errorf("campaignd: shard journal %s belongs to a different campaign or shard (fingerprint %s shard %d [%d,%d), want %s shard %d [%d,%d))",
				path, got.Fingerprint, got.Shard, got.Start, got.End, fingerprint, rng.Shard, rng.Start, rng.End)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	prior := make(map[int]campaign.Result, rng.Len())
	for _, r := range recs {
		if rng.Contains(r.Job) {
			prior[r.Job] = r.Canonical()
		}
	}
	return j, prior, nil
}

// saveSubmit persists the campaign's submit request so a restarted
// server can rebuild the shard table (a pure function of the spec).
func saveSubmit(dir string, req SubmitRequest) error {
	b, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "campaign.json"), append(b, '\n'), 0o644)
}

// loadSubmit reads a persisted submit request back.
func loadSubmit(dir string) (SubmitRequest, error) {
	data, err := os.ReadFile(filepath.Join(dir, "campaign.json"))
	if err != nil {
		return SubmitRequest{}, err
	}
	var req SubmitRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return SubmitRequest{}, fmt.Errorf("campaignd: corrupt campaign.json in %s: %w", dir, err)
	}
	return req, nil
}

// listCampaignDirs returns the campaign subdirectories of the data
// directory in lexical order (IDs are zero-padded, so lexical order is
// submission order).
func listCampaignDirs(dataDir string) ([]string, error) {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
