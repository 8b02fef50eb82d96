package main

import (
	"context"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/crossbar"
	"repro/internal/envm"
	"repro/internal/exper"
)

// TestSequencedCampaignsShareCheckpoint: -compare-encodings and
// -crossbar each run several campaigns in sequence on one -checkpoint
// path. Every config each mode ran must keep all of its trials in the
// file, not only the last campaign's.
func TestSequencedCampaignsShareCheckpoint(t *testing.T) {
	ev, err := exper.NewEnv(1).Measured()
	if err != nil {
		t.Fatal(err)
	}
	const trials = 2
	check := func(t *testing.T, path string, seed uint64, wantConfigs int) {
		t.Helper()
		recs, _, err := campaign.ReadCheckpoint(nil, path, seed, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		perConfig := map[string]int{}
		for _, r := range recs {
			perConfig[r.Config]++
		}
		if len(perConfig) != wantConfigs {
			t.Errorf("checkpoint holds %d configs, want %d: %v", len(perConfig), wantConfigs, perConfig)
		}
		for id, n := range perConfig {
			if n != trials {
				t.Errorf("config %s: %d records, want %d", id, n, trials)
			}
		}
	}
	opts := func(t *testing.T) campaign.Options {
		return campaign.Options{
			Seed: 99, MaxTrials: trials, MinTrials: trials, Workers: 1,
			CheckpointPath: filepath.Join(t.TempDir(), "ck.jsonl"),
		}
	}

	t.Run("compare-encodings", func(t *testing.T) {
		opt := opts(t)
		runCompare(context.Background(), ev, envm.CTT, 3, false, opt)
		check(t, opt.CheckpointPath, opt.Seed, 3) // CSR, bitmask, 2:4
	})
	t.Run("crossbar", func(t *testing.T) {
		opt := opts(t)
		xc := crossbar.Config{Rows: 64, Cols: 32, SpareCols: 4, VarSigma: 0.05, StuckRate: 1e-4, StuckColRate: 0.01}
		runCrossbar(context.Background(), ev, ev.Model, envm.CTT, []crossbar.Config{xc}, true, opt)
		check(t, opt.CheckpointPath, opt.Seed, 2) // bare and mitigated array
	})
}
