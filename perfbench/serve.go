package main

// Workload serve: an open-loop generator calls serve.Server.Handler() in
// process (no sockets) at two fixed rates, light and heavy, then
// searches for max_rps, the highest rate whose p99 stays within the
// latency limit with nothing shed and no growing backlog. The mix is 45%
// /v1/inject, 10% /v1/encode, 40% /v1/evaluate and 5% /v1/lifetime over
// the four tenant configs of internal/serve's soak test; a fifth of the
// requests repeat a recent (config, seed). Arrivals are evenly spaced
// and every block of 80 requests holds the mix exactly, so seeds change
// the order and the trial seeds, not how much work arrives. Every
// request is timed from when it was due, so a stall counts against the
// requests it delays.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ares"
	"repro/internal/serve"
)

// serveConfigs are the tenant configs of internal/serve's soak test.
var serveConfigs = []string{
	`{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}}`,
	`{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"overrides":{"rowcount":{"bpc":3,"ecc":true},"colidx":{"bpc":3,"ecc":true}}}`,
	`{"tech":"MLC-RRAM","encoding":"bitmask","default":{"bpc":2,"ecc":true}}`,
	`{"tech":"MLC-CTT","encoding":"idxsync","default":{"bpc":2},"retention_years":3}`,
}

const (
	// serveKneeRPS is the in-process knee measured on a 2-core Xeon
	// host: the rate at which p99 reaches serveLimitMS. light and heavy
	// sit at 30% and 75% of it; the max_rps probes climb through it.
	serveKneeRPS  = 400.0
	serveLightRPS = 0.30 * serveKneeRPS
	serveHeavyRPS = 0.75 * serveKneeRPS
	serveLimitMS  = 100.0
	// serveRepeatShare of requests repeat one of the last serveRecent
	// seeds of their config.
	serveRepeatShare = 0.2
	serveRecent      = 32
	// serveStep is the rate ratio between the max_rps probes, which
	// climb serveLadder.
	serveStep = 1.1
	// serveTimeoutMS bounds every request; a shed or failed request is
	// counted at this latency, past any limit.
	serveTimeoutMS = 10000
	serveChecked   = 24
	// serveProbeSeconds is the serve layer probe's time in a campaign
	// workload's traced run.
	serveProbeSeconds = 4
	// serveWarm of arrivals at the phase's rate precede its measured
	// requests; they are checked but not timed.
	serveWarm = time.Second
	// serveWindow is the fewest requests in one latency window.
	serveWindow = 250
	// serveBacklogCap stops a search probe whose outstanding requests
	// pass it, below the server's default admission queue of 64.
	serveBacklogCap = 32
)

type request struct {
	ep   string
	cfg  int
	seed uint64
	body []byte
}

func (q *request) id() string { return fmt.Sprintf("%s|%d|%d", q.ep, q.cfg, q.seed) }

type reqResult struct {
	q          *request
	due, start time.Time
	end        time.Time
	status     int
	body       []byte
}

type phase struct {
	name       string
	rate       float64
	results    []reqResult
	lat, late  []float64 // ms
	backlogMid int64
	backlogEnd int64
	failed     int
	shed       int
	// aborted marks a search probe stopped early because its backlog
	// passed serveBacklogCap: past the knee, with no need to drive the
	// server into shedding.
	aborted bool
}

// p99 and p50 are medians over windows of at least serveWindow
// consecutive requests, so that a burst of interference from outside
// the process moves one window, not the figure.
func (p *phase) p99() float64 { return p.windowed(0.99) }

func (p *phase) p50() float64 { return p.windowed(0.5) }

func (p *phase) windowed(q float64) float64 { return windowed(p.lat, q, serveWindow) }

// growing reports a backlog that rose through the phase.
func (p *phase) growing() bool {
	return p.backlogEnd >= 24 && float64(p.backlogEnd) > 1.5*float64(p.backlogMid)
}

func (p *phase) meets() bool {
	return !p.aborted && p.failed == 0 && p.p99() <= serveLimitMS && !p.growing()
}

type serveState struct {
	ev      *ares.MeasuredEvaluator
	backend *serve.AresBackend
	srv     *serve.Server
	h       http.Handler
	cfgs    []ares.Config
	cfgIdx  map[string]int
}

// newServeState starts a server over ev with the default options. With
// a tracer, its backend records a span around every call.
func newServeState(ev *ares.MeasuredEvaluator, tr *tracer) (*serveState, error) {
	cfgs, idx, err := tenantConfigs()
	if err != nil {
		return nil, err
	}
	st := &serveState{ev: ev, backend: serve.NewAresBackend(ev), cfgs: cfgs, cfgIdx: idx}
	var backend serve.Backend = st.backend
	if tr != nil {
		backend = &timedBackend{inner: st.backend, tr: tr, cfgIdx: idx}
	}
	st.srv = serve.New(serve.Options{Backend: backend})
	st.h = st.srv.Handler()
	return st, nil
}

func runServe(b *bench) error {
	ctx := background
	st, setupS, err := medianSetup(func() (*serveState, error) {
		_, ev, err := newEvaluator()
		if err != nil {
			return nil, err
		}
		return newServeState(ev, nil)
	}, func(s *serveState) { shutdown(s.srv) })
	if err != nil {
		return err
	}
	started := []*serveState{st}
	defer func() {
		for _, s := range started {
			shutdown(s.srv)
		}
	}()
	b.printf("serve: in-process handler, light %.0f req/s, heavy %.0f req/s, p99 limit %.0f ms, repeat share %.2f",
		serveLightRPS, serveHeavyRPS, serveLimitMS, serveRepeatShare)
	b.e2e("setup_s", "s", setupS, setupReps)

	gen := newRNG(b.seed, 7)
	phases := serveMeasure(st, nil, gen, b.phaseSeconds())
	light, heavy := phases[0], phases[1]
	b.e2e("light_p50_ms", "ms", light.p50(), len(light.lat))
	b.e2e("light_p99_ms", "ms", light.p99(), len(light.lat))
	b.e2e("heavy_p50_ms", "ms", heavy.p50(), len(heavy.lat))
	b.e2e("heavy_p99_ms", "ms", heavy.p99(), len(heavy.lat))
	maxRPS, search := maxRate(phases[2:])
	b.e2e("max_rps", "1/s", maxRPS, len(phases)-2)
	b.printf("  (%s)", search)
	for _, p := range phases {
		b.printf("  phase %-8s %6.1f req/s n=%d p50 %.2f ms p99 %.2f ms late p99 %.3f ms backlog %d->%d shed %d failed %d",
			p.name, p.rate, len(p.lat), p.p50(), p.p99(), quantile(p.late, 0.99), p.backlogMid, p.backlogEnd, p.shed, p.failed)
	}
	serveChecks(ctx, b, st, phases)

	if !b.trace {
		return nil
	}
	b.tr = newTracer()
	tst, err := newServeState(st.ev, b.tr)
	if err != nil {
		return err
	}
	started = append(started, tst)
	tphases := serveMeasure(tst, b.tr, gen, b.phaseSeconds())
	serveChecks(ctx, b, tst, tphases)
	tmax, _ := maxRate(tphases[2:])
	b.printf("traced phase: max_rps %.2f (untraced %.2f), light_p99_ms %.3f (untraced %.3f), heavy_p99_ms %.3f (untraced %.3f)",
		tmax, maxRPS, tphases[0].p99(), light.p99(), tphases[1].p99(), heavy.p99())
	b.layer("trace.overhead_frac", "ratio", 1-tmax/maxRPS, len(tphases)-2)
	traceSetup(b, st.ev, setupS, " + server start")
	fast, evals := serveLayers(b, tphases)
	b.layer("ares.fasthit_frac", "ratio", fast, evals)

	var trials []probeTrial
	pr := newRNG(b.seed, 9)
	for c := range st.cfgs {
		for k := 0; k < 10; k++ {
			trials = append(trials, probeTrial{cfg: c, seed: pr.Uint64() % 1000000})
		}
	}
	corruptProbe(b, st.ev, st.cfgs, trials)
	kernelReplay(b, st.ev)
	b.skip("serve runs no campaign", campaignMetrics...)
	b.skip("serve runs no fleet", fleetMetrics...)
	b.skip("serve's trials are storage-route requests; per-route campaign trial cost is the corrupted workload's", routeMetrics...)
	b.skip("serve has no crossbar config", crossbarMetrics...)
	return nil
}

func shutdown(s *serve.Server) {
	ctx, cancel := context.WithTimeout(background, 30*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx) // a drain error leaves nothing for the benchmark to report
}

// serveMeasure runs the light and heavy phases and the max_rps probes
// within secs seconds: 40% light, 25% heavy, the rest split over the
// probes.
func serveMeasure(st *serveState, tr *tracer, gen *rng, secs float64) []*phase {
	sec := func(f float64) time.Duration { return time.Duration(f * secs * float64(time.Second)) }
	phases := []*phase{
		st.run(tr, "light", serveLightRPS, sec(0.40), gen, false),
		st.run(tr, "heavy", serveHeavyRPS, sec(0.25), gen, false),
	}
	for i, f := range serveLadder {
		phases = append(phases, st.run(tr, fmt.Sprintf("probe%d", i), f*serveKneeRPS,
			sec(0.35/float64(len(serveLadder))), gen, true))
	}
	return phases
}

// maxRate is the highest probed rate that meets the limit, raised by
// linear interpolation of p99 towards the next probe up, which misses
// it.
func maxRate(probes []*phase) (float64, string) {
	best := -1
	for i, p := range probes {
		if p.meets() {
			best = i
		}
	}
	if best < 0 {
		return probes[0].rate / serveStep, fmt.Sprintf("every probe missed the limit; below %.1f req/s", probes[0].rate)
	}
	pass := probes[best]
	if best == len(probes)-1 {
		return pass.rate, fmt.Sprintf("no probe missed the limit; at least %.1f req/s", pass.rate)
	}
	fail := probes[best+1]
	r := pass.rate
	if fp, pp := fail.p99(), pass.p99(); !fail.aborted && fp > pp {
		r = pass.rate + (serveLimitMS-pp)/(fp-pp)*(fail.rate-pass.rate)
	}
	r = math.Max(pass.rate, math.Min(fail.rate, r))
	return r, fmt.Sprintf("p99 crosses %.0f ms between %.1f req/s (p99 %.2f) and %.1f req/s (p99 %.2f, aborted %v)",
		serveLimitMS, pass.rate, pass.p99(), fail.rate, fail.p99(), fail.aborted)
}

// genRequests draws n requests of the endpoint mix. Every block of 80
// requests holds each (endpoint, config) pair in exactly its mix share,
// in a seeded order; a repeat reuses a recent seed of the same config.
func genRequests(r *rng, n int) []*request {
	out := make([]*request, n)
	recent := make([][]uint64, len(serveConfigs))
	var block []request
	for i := range out {
		if len(block) == 0 {
			block = newMixBlock(r)
		}
		q := block[0]
		block = block[1:]
		q.seed = r.Uint64() % 1000000
		if rs := recent[q.cfg]; len(rs) > 0 && r.Float64() < serveRepeatShare {
			q.seed = rs[r.Intn(len(rs))]
		}
		recent[q.cfg] = append(recent[q.cfg], q.seed)
		if len(recent[q.cfg]) > serveRecent {
			recent[q.cfg] = recent[q.cfg][1:]
		}
		life := ""
		if q.ep == "lifetime" {
			life = `,"lifetime":{"years":8,"scrub_interval_years":4}`
		}
		q.body = []byte(fmt.Sprintf(`{"tenant":"tenant-%d","seed":%d,"timeout_ms":%d,"config":%s%s}`,
			q.cfg, q.seed, serveTimeoutMS, serveConfigs[q.cfg], life))
		out[i] = &q
	}
	return out
}

// serveLadder are the max_rps probe rates as multiples of the knee.
var serveLadder = []float64{1 / (serveStep * serveStep), 1 / serveStep, 1, serveStep, serveStep * serveStep}

// serveMix is the endpoint mix per config in one block: 45% inject,
// 10% encode, 40% evaluate, 5% lifetime.
var serveMix = []struct {
	ep string
	n  int
}{{"inject", 9}, {"encode", 2}, {"evaluate", 8}, {"lifetime", 1}}

func newMixBlock(r *rng) []request {
	var b []request
	for c := range serveConfigs {
		for _, m := range serveMix {
			for k := 0; k < m.n; k++ {
				b = append(b, request{ep: m.ep, cfg: c})
			}
		}
	}
	for i := len(b) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		b[i], b[j] = b[j], b[i]
	}
	return b
}

// run sends requests evenly spaced at rate for serveWarm + dur and waits
// for every response; the first serveWarm of arrivals is not timed.
func (st *serveState) run(tr *tracer, name string, rate float64, dur time.Duration, gen *rng, probe bool) *phase {
	var dues []time.Duration
	for i := 0; ; i++ {
		d := time.Duration(float64(i) / rate * float64(time.Second))
		if d >= dur+serveWarm {
			break
		}
		dues = append(dues, d)
	}
	reqs := genRequests(gen, len(dues))
	results := make([]reqResult, len(dues))
	p := &phase{name: name, rate: rate}
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	mid := false
	for i, d := range dues {
		due := start.Add(d)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		if !mid && d >= serveWarm+dur/2 {
			p.backlogMid, mid = outstanding.Load(), true
		}
		if probe && outstanding.Load() > serveBacklogCap {
			p.aborted = true
			dues, results = dues[:i], results[:i]
			break
		}
		outstanding.Add(1)
		wg.Add(1)
		go func(q *request, due time.Time, out *reqResult) {
			defer wg.Done()
			st.issue(tr, q, due, out)
			outstanding.Add(-1)
		}(reqs[i], due, &results[i])
	}
	if w := time.Until(start.Add(serveWarm + dur)); w > 0 {
		time.Sleep(w)
	}
	p.backlogEnd = outstanding.Load()
	wg.Wait()
	p.results = results
	for i, r := range p.results {
		lat := ms(r.end.Sub(r.due))
		if r.status != http.StatusOK {
			p.failed++
			lat = serveTimeoutMS
			if r.status == http.StatusTooManyRequests {
				p.shed++
			}
		}
		if dues[i] < serveWarm {
			continue
		}
		p.late = append(p.late, ms(r.start.Sub(r.due)))
		p.lat = append(p.lat, lat)
	}
	return p
}

// issue sends one request to the handler.
func (st *serveState) issue(tr *tracer, q *request, due time.Time, out *reqResult) {
	req := httptest.NewRequest(http.MethodPost, "/v1/"+q.ep, bytes.NewReader(q.body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	st.h.ServeHTTP(rec, req)
	t1 := time.Now()
	*out = reqResult{q: q, due: due, start: t0, end: t1, status: rec.Code, body: rec.Body.Bytes()}
	if tr != nil {
		id := q.id()
		root := tr.add("loadgen.request", id, -1, due, t1)
		tr.add("serve.handler", id, root, t0, t1)
	}
}

// timedBackend records a span around every backend call of the traced
// phase. The server coalesces identical requests, so a backend span is
// matched to the handler spans of its request id afterwards.
type timedBackend struct {
	inner  serve.Backend
	tr     *tracer
	cfgIdx map[string]int
}

func (t *timedBackend) id(ep string, cfg ares.Config, seed uint64) string {
	return fmt.Sprintf("%s|%d|%d", ep, t.cfgIdx[cfg.String()], seed)
}

func (t *timedBackend) Encode(ctx context.Context, cfg ares.Config) (*serve.EncodeResponse, error) {
	t0 := time.Now()
	r, err := t.inner.Encode(ctx, cfg)
	t.tr.add("backend.encode", fmt.Sprintf("encode|%d", t.cfgIdx[cfg.String()]), -1, t0, time.Now())
	return r, err
}

func (t *timedBackend) Inject(ctx context.Context, cfg ares.Config, seed uint64) (ares.TrialStats, error) {
	t0 := time.Now()
	r, err := t.inner.Inject(ctx, cfg, seed)
	t.tr.add("backend.inject", t.id("inject", cfg, seed), -1, t0, time.Now())
	return r, err
}

func (t *timedBackend) Evaluate(ctx context.Context, cfg ares.Config, seed uint64) (float64, ares.TrialStats, error) {
	t0 := time.Now()
	d, s, err := t.inner.Evaluate(ctx, cfg, seed)
	t.tr.add("backend.evaluate", t.id("evaluate", cfg, seed), -1, t0, time.Now())
	return d, s, err
}

func (t *timedBackend) Lifetime(ctx context.Context, cfg ares.Config, lp ares.LifetimePolicy, seed uint64) (ares.LifetimeStats, error) {
	t0 := time.Now()
	r, err := t.inner.Lifetime(ctx, cfg, lp, seed)
	t.tr.add("backend.lifetime", t.id("lifetime", cfg, seed), -1, t0, time.Now())
	return r, err
}

// serveChecks: no 5xx, every 200 body decodes, and a sample of evaluate
// responses equals a direct AresBackend.Evaluate on the same (config,
// seed).
func serveChecks(ctx context.Context, b *bench, st *serveState, phases []*phase) {
	type key struct {
		cfg  int
		seed uint64
	}
	evals := map[key]serve.EvaluateResponse{}
	var keys []key
	attempted, failed := 0, 0
	for _, p := range phases {
		attempted += len(p.results)
		failed += p.failed
		for _, r := range p.results {
			if r.status >= 500 || (r.status != http.StatusOK && r.status != http.StatusTooManyRequests) {
				b.check(false, "serve %s: status %d: %s", r.q.ep, r.status, r.body)
				continue
			}
			if r.status != http.StatusOK {
				continue
			}
			var seed uint64
			var cfgName string
			dec := json.NewDecoder(bytes.NewReader(r.body))
			dec.DisallowUnknownFields()
			var err error
			switch r.q.ep {
			case "encode":
				var v serve.EncodeResponse
				err = dec.Decode(&v)
				seed, cfgName = r.q.seed, v.Config
			case "inject":
				var v serve.InjectResponse
				err = dec.Decode(&v)
				seed, cfgName = v.Seed, v.Config
			case "evaluate":
				var v serve.EvaluateResponse
				err = dec.Decode(&v)
				seed, cfgName = v.Seed, v.Config
				k := key{r.q.cfg, r.q.seed}
				if _, ok := evals[k]; !ok && err == nil {
					evals[k] = v
					keys = append(keys, k)
				}
			case "lifetime":
				var v serve.LifetimeResponse
				err = dec.Decode(&v)
				seed, cfgName = v.Seed, v.Config
				if err == nil && len(v.Epochs) == 0 {
					err = fmt.Errorf("no epochs")
				}
			}
			if err != nil || seed != r.q.seed || cfgName != st.cfgs[r.q.cfg].String() {
				b.check(false, "serve %s body does not decode to the request's answer (%v): %s", r.q.ep, err, r.body)
			}
		}
	}
	b.ops(attempted, failed)
	sort.Slice(keys, func(i, j int) bool { return keys[i].seed < keys[j].seed })
	for i, k := range keys {
		if i >= serveChecked {
			break
		}
		delta, s, err := st.backend.Evaluate(ctx, st.cfgs[k.cfg], k.seed)
		got := evals[k]
		if err != nil || math.Float64bits(delta) != math.Float64bits(got.DeltaErr) ||
			s.Faults != got.Stats.Faults || math.Float64bits(s.Mismatch) != math.Float64bits(got.Stats.Mismatch) {
			b.check(false, "serve evaluate config %d seed %d: served delta %v faults %d, direct %v faults %d (%v)",
				k.cfg, k.seed, got.DeltaErr, got.Stats.Faults, delta, s.Faults, err)
		}
	}
	b.check(len(keys) > 0, "serve: no evaluate response to check")
}

// backendKey maps a request id to the id of the backend call serving
// it: encode results do not depend on the seed.
func backendKey(id string) string {
	if strings.HasPrefix(id, "encode|") {
		return id[:strings.LastIndexByte(id, '|')]
	}
	return id
}

// serveLayers derives the serve per-layer metrics from the traced
// phases' spans.
func serveLayers(b *bench, phases []*phase) (fasthit float64, evals int) {
	spans := b.tr.snapshot()
	backend := map[string][]span{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "backend.") {
			backend[s.ID] = append(backend[s.ID], s)
		}
	}
	for _, ep := range []string{"inject", "encode", "evaluate", "lifetime"} {
		d := durMS(named(spans, "backend."+ep))
		b.layer("serve.backend_ms."+ep, "ms", mean(d), len(d))
	}
	var self, handler, cov []float64
	calls := 0
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "backend.") {
			calls++
		}
		if s.Name != "serve.handler" {
			continue
		}
		c := covered(s, backend[backendKey(s.ID)])
		handler = append(handler, ms(s.dur()))
		cov = append(cov, ms(c))
		self = append(self, ms(s.dur()-c))
	}
	b.layer("serve.self_p50_ms", "ms", quantile(self, 0.5), len(self))
	b.layer("serve.self_p99_ms", "ms", quantile(self, 0.99), len(self))
	ok, shed, fast := 0, 0, 0
	var late []float64
	for _, p := range phases {
		shed += p.shed
		late = append(late, p.late...)
		for _, r := range p.results {
			if r.status != http.StatusOK {
				continue
			}
			ok++
			if r.q.ep == "evaluate" {
				var v serve.EvaluateResponse
				if json.Unmarshal(r.body, &v) == nil {
					evals++
					if v.Stats.Mismatch == 0 {
						fast++
					}
				}
			}
		}
	}
	b.layer("serve.coalesced_frac", "ratio", 1-float64(calls)/math.Max(1, float64(ok)), ok)
	b.layer("serve.shed", "count", float64(shed), len(late))
	b.layer("loadgen.late_ms", "ms", quantile(late, 0.99), len(late))
	b.printf("  accounting: handler mean %.4f ms = serve.self mean %.4f + backend-covered mean %.4f + residual %.4f ms (%d backend calls for %d answered requests)",
		mean(handler), mean(self), mean(cov), mean(handler)-mean(self)-mean(cov), calls, ok)
	return float64(fast) / math.Max(1, float64(evals)), evals
}

// serveLayerProbe measures the serve layer inside a campaign workload's
// traced run: a server with the timing backend over ev, one phase of
// probeSecs at the light rate (far enough below the knee that nothing
// is shed), then the serve per-layer metrics and output checks.
func serveLayerProbe(b *bench, ev *ares.MeasuredEvaluator, probeSecs float64) error {
	st, err := newServeState(ev, b.tr)
	if err != nil {
		return err
	}
	defer shutdown(st.srv)
	phases := []*phase{st.run(b.tr, "light", serveLightRPS, time.Duration(probeSecs*float64(time.Second)), newRNG(b.seed, 11), false)}
	serveChecks(background, b, st, phases)
	serveLayers(b, phases)
	return nil
}

// tenantConfigs decodes serveConfigs through the server's own decoder.
func tenantConfigs() ([]ares.Config, map[string]int, error) {
	var cfgs []ares.Config
	idx := map[string]int{}
	for i, c := range serveConfigs {
		_, cfg, _, err := serve.DecodeRequest(strings.NewReader(fmt.Sprintf(`{"seed":1,"config":%s}`, c)), false)
		if err != nil {
			return nil, nil, fmt.Errorf("tenant config %d: %w", i, err)
		}
		cfgs = append(cfgs, cfg)
		idx[cfg.String()] = i
	}
	return cfgs, idx, nil
}
