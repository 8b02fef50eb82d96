package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/ares"
	"repro/internal/campaign"
)

// outcome is what one trial returned, kept so serial replays and the
// merged result can be checked against it.
type outcome struct {
	delta                       float64
	faults, corrected, detected int
	mismatch                    float64
}

func outcomeOf(delta float64, st ares.TrialStats) outcome {
	return outcome{delta: delta, faults: st.Faults, corrected: st.Corrected, detected: st.Detected, mismatch: st.Mismatch}
}

// sameOutcome compares the fields both outcomes carry, bit for bit.
func sameOutcome(a, b outcome, withECC bool) bool {
	same := math.Float64bits(a.delta) == math.Float64bits(b.delta) &&
		a.faults == b.faults && math.Float64bits(a.mismatch) == math.Float64bits(b.mismatch)
	if withECC {
		same = same && a.corrected == b.corrected && a.detected == b.detected
	}
	return same
}

type trialKey struct {
	config string
	index  int
}

// spanKey carries the index of the span that is the parent of the
// trials run under a context.
type spanKey struct{}

func withSpan(ctx context.Context, sp int) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

func spanOf(ctx context.Context) int {
	if sp, ok := ctx.Value(spanKey{}).(int); ok {
		return sp
	}
	return -1
}

// recorder wraps a campaign.RunFunc: it times every trial and folds
// each outcome into per-config sums as it arrives. It keeps the round's
// outcomes for the serial replays and, when keepRecords is set, its
// records for the merge check; when tracing it records a span per trial.
type recorder struct {
	mu          sync.Mutex
	keepRecords bool
	outcomes    map[trialKey]outcome
	records     []*campaign.Record
	trials      int // completed trial runs, a re-run after a lease steal included
	distinct    int // distinct (config, trial) outcomes
	hits        int // distinct trials that took the zero-mismatch fast path
	sum         map[string]float64
	cnt         map[string]int
	busy        time.Duration
	lastEnd     time.Time
	failed      int
}

func newRecorder(keepRecords bool) *recorder {
	return &recorder{keepRecords: keepRecords, outcomes: map[trialKey]outcome{},
		sum: map[string]float64{}, cnt: map[string]int{}}
}

// trialFunc runs one trial and returns its sample and outcome.
type trialFunc func(ctx context.Context, t campaign.Trial, parent int) (campaign.Sample, outcome, error)

func (rc *recorder) wrap(tr *tracer, run trialFunc) campaign.RunFunc {
	return func(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
		id := ""
		if tr != nil {
			id = fmt.Sprintf("%s#%d", t.Config, t.Index)
		}
		sp := tr.begin("campaign.run", id, spanOf(ctx))
		t0 := time.Now()
		s, o, err := run(ctx, t, sp)
		t1 := time.Now()
		tr.end(sp)
		rc.mu.Lock()
		defer rc.mu.Unlock()
		if t1.After(rc.lastEnd) {
			rc.lastEnd = t1
		}
		rc.busy += t1.Sub(t0)
		if err != nil {
			rc.failed++
			return s, err
		}
		rc.trials++
		k := trialKey{t.Config, t.Index}
		if _, dup := rc.outcomes[k]; !dup {
			rc.outcomes[k] = o
			rc.distinct++
			if o.mismatch == 0 {
				rc.hits++
			}
			rc.sum[t.Config] += o.delta
			rc.cnt[t.Config]++
		}
		if rc.keepRecords {
			smp := s
			rc.records = append(rc.records, &campaign.Record{Config: t.Config, Trial: t.Index, Seed: t.Seed, Sample: &smp})
		}
		return s, nil
	}
}

// round is one measured campaign round; fig5 also fills the fleet fields.
type round struct {
	base     uint64
	rc       *recorder
	wall     time.Duration // whole round, fig5's merge included
	work     time.Duration // trials running: first started -> last returned
	merge    time.Duration
	drain    time.Duration // last trial done -> last worker returned
	claims   int
	steals   int
	walBytes int64
}

// minRounds is the fewest rounds a measured phase runs.
const minRounds = 3

// measureRounds runs rounds until secs have passed and at least
// minRounds have run. Only the last round keeps its per-trial outcomes;
// the earlier ones keep their counts and sums, so the benchmark's own
// memory does not grow with the number of trials measured.
func measureRounds(tr *tracer, secs float64, runRound func(*tracer) (*round, error)) ([]*round, error) {
	var rounds []*round
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	for len(rounds) < minRounds || time.Now().Before(deadline) {
		if len(rounds) > 0 {
			rounds[len(rounds)-1].rc.outcomes = nil
		}
		r, err := runRound(tr)
		if err != nil {
			return rounds, err
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

// summarize returns the per-round trial rates, the number of trials and
// the fast-path share of the rounds.
func summarize(rounds []*round) (rate []float64, trials int, fast float64) {
	var hits, distinct int
	for _, r := range rounds {
		rate = append(rate, float64(r.rc.trials)/r.wall.Seconds())
		trials += r.rc.trials
		hits += r.rc.hits
		distinct += r.rc.distinct
	}
	return rate, trials, float64(hits) / math.Max(1, float64(distinct))
}

// busyFrac is the time inside RunFunc over (trial goroutines x the time
// trials were running).
func busyFrac(rounds []*round, n int) float64 {
	var busy, work time.Duration
	for _, r := range rounds {
		busy += r.rc.busy
		work += r.work
	}
	return busy.Seconds() / (float64(n) * work.Seconds())
}

// sameAggregates reports whether two campaign results hold the same
// per-config aggregates, bit for bit.
func sameAggregates(a, b *campaign.Result) error {
	if len(a.Configs) != len(b.Configs) {
		return fmt.Errorf("%d configs vs %d", len(a.Configs), len(b.Configs))
	}
	for i := range a.Configs {
		x, y := a.Configs[i], b.Configs[i]
		if x.Config != y.Config || x.N != y.N ||
			math.Float64bits(x.Mean) != math.Float64bits(y.Mean) ||
			math.Float64bits(x.Max) != math.Float64bits(y.Max) ||
			math.Float64bits(x.Min) != math.Float64bits(y.Min) {
			return fmt.Errorf("config %q: n=%d mean=%v max=%v vs n=%d mean=%v max=%v",
				x.Config, x.N, x.Mean, x.Max, y.N, y.Mean, y.Max)
		}
	}
	return nil
}
