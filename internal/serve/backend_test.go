package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/ares"
	"repro/internal/envm"
	"repro/internal/sparse"
)

// TestAresBackendEvaluates24: a 2:4 /v1/evaluate request with a meta24
// override decodes, runs through the real backend, and answers exactly
// what the evaluator computes for the same config and seed.
func TestAresBackendEvaluates24(t *testing.T) {
	ev := getSoakEvaluator(t)
	_, hs, _ := newTestServer(t, Options{Backend: NewAresBackend(ev), DefaultTimeout: 30 * time.Second})
	const seed = 17
	resp, data := post(t, hs.URL+"/v1/evaluate", fmt.Sprintf(
		`{"seed":%d,"config":{"tech":"MLC-CTT","encoding":"2:4","default":{"bpc":3},"overrides":{"meta24":{"bpc":2}}}}`, seed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var got EvaluateResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}

	cfg := ares.Config{Tech: envm.CTT, Encoding: sparse.Kind24, Default: ares.StreamPolicy{BPC: 3},
		Overrides: map[string]ares.StreamPolicy{"meta24": {BPC: 2}}}
	delta, st, err := ev.EvalTrial(context.Background(), cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults == 0 {
		t.Fatal("fixture too mild: the trial injected no faults")
	}
	want := EvaluateResponse{Config: cfg.String(), Seed: seed, DeltaErr: delta, Stats: statsJSON(st)}
	if got != want {
		t.Errorf("served %+v, evaluator %+v", got, want)
	}
}
