package campaign

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ares"
	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/telemetry"
	"repro/internal/train"
)

// TestScrapeMidCampaign proves the continuous Prometheus scrape path is
// a pure read against a live campaign: scrapers hammer the default
// registry while the engine runs real corrupted inference trials, and
// the engine's counters — and the evaluator's per-start-layer prefix
// counters and prefix-memory gauge — end at exactly the values a
// scrape-free run of the same campaign produces: no reset-on-read, no
// perturbation of in-flight recording.
func TestScrapeMidCampaign(t *testing.T) {
	reg := telemetry.Default()
	completed := reg.Counter("campaign.trials.completed")
	latency := reg.Timer("campaign.trial.latency").Hist()
	misses := reg.Counter("ares.fastpath.misses")
	prefixBytes := reg.Gauge("ares.prefix.bytes")

	m := dnn.TinyCNN()
	m.InitWeights(3)
	ev, err := ares.NewMeasuredEvaluator(m, train.Synthesize(train.SynthConfig{N: 40, Seed: 4}), 5)
	if err != nil {
		t.Fatal(err)
	}
	var starts []*telemetry.Counter
	for _, l := range m.Layers {
		if l.HasWeights() {
			starts = append(starts, reg.Counter("ares.prefix.start."+l.Name))
		}
	}
	cfg := ares.IsolateStream(ares.Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
		"values", ares.StreamPolicy{BPC: 3})
	run := func(ctx context.Context, tr Trial) (Sample, error) {
		d, _, err := ev.EvalTrial(ctx, cfg, tr.Seed)
		return Sample{Value: d}, err
	}
	bytes0 := prefixBytes.Value()
	if bytes0 <= 0 {
		t.Fatalf("ares.prefix.bytes = %v after building an evaluator", bytes0)
	}

	// campaign runs the 3-config x 40-trial campaign, with scrapers
	// looping on the registry when scrape is set, and returns how far
	// the counters moved.
	campaign := func(scrape bool) []int64 {
		before := []int64{completed.Value(), latency.Count(), misses.Value()}
		for _, c := range starts {
			before = append(before, c.Value())
		}
		c, err := New([]string{"a", "b", "c"}, run, Options{Seed: 7, MaxTrials: 40, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for s := 0; scrape && s < 4; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					var buf bytes.Buffer
					if err := reg.WritePrometheus(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		res, err := c.Run(context.Background())
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		// 3 configs x 40 trials, no early stop configured.
		if res.Executed != 120 {
			t.Fatalf("expected 120 executed trials, got %d", res.Executed)
		}
		after := []int64{completed.Value(), latency.Count(), misses.Value()}
		for _, c := range starts {
			after = append(after, c.Value())
		}
		for i := range after {
			after[i] -= before[i]
		}
		return after
	}
	scraped, quiet := campaign(true), campaign(false)
	// The counters moved by exactly the executed trial count despite
	// the scrape storm, and every measured trial counted once at the
	// layer its pass started at, as in the scrape-free run.
	if scraped[0] != 120 || scraped[1] != 120 {
		t.Errorf("campaign.trials.completed moved by %d, campaign.trial.latency count by %d under scraping, want 120",
			scraped[0], scraped[1])
	}
	var counted int64
	for _, n := range scraped[3:] {
		counted += n
	}
	if counted != scraped[2] || counted == 0 {
		t.Errorf("prefix start counters moved by %d in total, fast-path misses by %d", counted, scraped[2])
	}
	if fmt.Sprint(scraped) != fmt.Sprint(quiet) {
		t.Errorf("counter moves under scraping %v != scrape-free %v", scraped, quiet)
	}
	if v := prefixBytes.Value(); v != bytes0 {
		t.Errorf("ares.prefix.bytes moved from %v to %v during trials", bytes0, v)
	}

	// And the final scrape reports the true values.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprintf("campaign_trials_completed %d", completed.Value()),
		fmt.Sprintf("ares_prefix_start_fc1 %d", starts[2].Value()),
		fmt.Sprintf("ares_prefix_bytes %v", bytes0),
	}
	for _, w := range want {
		if !strings.Contains(buf.String(), w) {
			t.Errorf("final scrape missing %q", w)
		}
	}
}
