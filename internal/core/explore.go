package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"repro/internal/ares"
	"repro/internal/envm"
	"repro/internal/sparse"
)

// Candidate is one point of the design space: an encoding with a
// per-structure storage policy on one technology, evaluated against the
// model's iso-training-noise bound.
type Candidate struct {
	Model    string
	Tech     envm.Tech
	Kind     sparse.Kind
	Policies map[string]ares.StreamPolicy

	TotalDataBits   int64
	TotalParityBits int64
	TotalCells      int64
	MaxBPC          int
	DeltaErr        float64
	Accepted        bool
}

// TotalBits returns stored bits including parity.
func (c Candidate) TotalBits() int64 { return c.TotalDataBits + c.TotalParityBits }

// Label renders the candidate like the paper's tables ("BitM+IdxSync",
// "CSR+ECC", ...).
func (c Candidate) Label() string { return label(c.Kind, c.Policies) }

// label names an encoding with its policies: the kind, plus "+ECC" when
// any stream is protected.
func label(kind sparse.Kind, policies map[string]ares.StreamPolicy) string {
	for _, p := range policies {
		if p.ECC {
			return kind.String() + "+ECC"
		}
	}
	return kind.String()
}

// PolicyString renders the per-stream policies deterministically.
func (c Candidate) PolicyString() string {
	names := c.Kind.Streams()
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s:%s", n, c.Policies[n]))
	}
	return strings.Join(parts, ",")
}

// Explorer runs the exhaustive design-space exploration of Section 4.4
// for one prepared model: every encoding, every per-structure
// bits-per-cell and protection combination, on every technology.
type Explorer struct {
	PM       *PreparedModel
	Profiles map[sparse.Kind][]LayerProfile
	Opt      ProfileOptions
}

// NewExplorer profiles the model under every encoding kind. Profiling is
// embarrassingly parallel across (layer, kind) pairs and is spread over
// the available CPUs; results are deterministic regardless of schedule
// because every probe derives its own seed.
func NewExplorer(pm *PreparedModel, opt ProfileOptions) *Explorer {
	e := &Explorer{PM: pm, Profiles: make(map[sparse.Kind][]LayerProfile), Opt: opt}
	type job struct {
		kind sparse.Kind
		li   int
	}
	var jobs []job
	for _, kind := range sparse.Kinds {
		e.Profiles[kind] = make([]LayerProfile, len(pm.Layers))
		for li := range pm.Layers {
			jobs = append(jobs, job{kind, li})
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	jobCh := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				o := opt
				o.Seed = opt.Seed + uint64(j.li)*9973
				e.Profiles[j.kind][j.li] = ProfileLayer(pm.Layers[j.li], j.kind, o)
			}
		}()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	return e
}

// WithRetention returns a shallow copy of the explorer that evaluates
// candidates at the given storage age. Damage probes are
// device-rate-independent, so the (expensive) profiles are shared; only
// the fault intensities change.
func (e *Explorer) WithRetention(years float64) *Explorer {
	opt := e.Opt
	opt.RetentionYears = years
	return &Explorer{PM: e.PM, Profiles: e.Profiles, Opt: opt}
}

// layerDamage is the surrogate input for one profiled layer on tech at
// the given storage age, with each stream stored under its policy:
// exact full-scale costs, expected uncorrectable events per stream, and
// the probed per-event damage. Point damage is diluted to full scale;
// cascades are not. It panics when a stream has no policy or no probe
// for its policy — scoring such a stream as harmless would accept
// configurations nobody measured.
func layerDamage(lp LayerProfile, tech envm.Tech, years float64, policies map[string]ares.StreamPolicy) ares.LayerDamage {
	ld := ares.LayerDamage{
		Weights:  int(lp.FullWeights),
		SignalSS: lp.SubSignalSS * lp.Scale,
	}
	for _, sp := range lp.Streams {
		p, ok := policies[sp.Name]
		if !ok {
			panic(fmt.Sprintf("core: no policy for stream %q", sp.Name))
		}
		d, ok := sp.Probes[PolicyKey{BPC: p.BPC, ECC: p.ECC}]
		if !ok {
			panic(fmt.Sprintf("core: layer %s stream %q has no probe for policy %v", lp.LayerName, sp.Name, p))
		}
		if !d.Catastrophic() && lp.Scale > 1 {
			// Point damage dilutes at full scale (the event corrupts a
			// fixed number of weights, not a fixed fraction). Dilution
			// only lowers DMismatch, so the result stays non-catastrophic.
			d.DStruct /= lp.Scale
			d.DNSR /= lp.Scale
			d.DMismatch /= lp.Scale
		}
		sc := envm.StoreConfig{Tech: tech, BPC: p.BPC, Gray: p.ECC, RetentionYears: years}
		ld.Costs = append(ld.Costs, ares.StreamCostOf(sp.Name, sp.FullDataBits, p, 0))
		ld.Streams = append(ld.Streams, ares.StreamDamage{
			Name:      sp.Name,
			LambdaEff: ares.LambdaEff(sp.FullDataBits, sc, p.ECC, 0),
			Damage:    d,
		})
	}
	return ld
}

// Evaluate scores one candidate: exact storage cost plus the surrogate
// expected error delta, against the model's error bound.
func (e *Explorer) Evaluate(tech envm.Tech, kind sparse.Kind, policies map[string]ares.StreamPolicy) Candidate {
	cand := Candidate{
		Model: e.PM.Model.Name, Tech: tech, Kind: kind, Policies: policies,
	}
	var lds []ares.LayerDamage
	for _, lp := range e.Profiles[kind] {
		ld := layerDamage(lp, tech, e.Opt.RetentionYears, policies)
		for _, cost := range ld.Costs {
			cand.TotalDataBits += cost.DataBits
			cand.TotalParityBits += cost.ParityBits
			cand.TotalCells += cost.Cells
			cand.MaxBPC = max(cand.MaxBPC, cost.BPC)
		}
		lds = append(lds, ld)
	}
	md := ares.Aggregate(lds)
	meta := e.PM.Model.Meta
	sens := ares.Sensitivity(e.PM.Model.Name)
	headroom := ares.Headroom(e.PM.Model.Classes, meta.BaselineError)
	cand.DeltaErr = md.ExpectedDeltaError(sens, headroom)
	cand.Accepted = cand.DeltaErr <= meta.ErrorBound
	return cand
}

// eachPolicy calls fn with every per-stream policy assignment of kind on
// tech — each stream at 1..min(maxProbedBPC, tech.MaxBitsPerCell) bits
// per cell, with and without ECC — in a fixed order, the first stream
// varying slowest. Every call gets a fresh map.
func eachPolicy(tech envm.Tech, kind sparse.Kind, fn func(map[string]ares.StreamPolicy)) {
	names := kind.Streams()
	choices := PolicyChoices(min(maxProbedBPC, tech.MaxBitsPerCell))
	assign := make([]PolicyKey, len(names))
	var walk func(i int)
	walk = func(i int) {
		if i == len(names) {
			policies := make(map[string]ares.StreamPolicy, len(names))
			for j, n := range names {
				policies[n] = assign[j].Policy()
			}
			fn(policies)
			return
		}
		for _, key := range choices {
			assign[i] = key
			walk(i + 1)
		}
	}
	walk(0)
}

// Best finds the minimal-cell accepted candidate for one encoding on one
// technology (a cell of Figure 6). If no combination is accepted, the
// lowest-delta candidate is returned with Accepted=false.
func (e *Explorer) Best(tech envm.Tech, kind sparse.Kind) Candidate {
	var best, fallback Candidate
	bestSet, fbSet := false, false
	eachPolicy(tech, kind, func(policies map[string]ares.StreamPolicy) {
		c := e.Evaluate(tech, kind, policies)
		if c.Accepted {
			if !bestSet || c.TotalCells < best.TotalCells {
				best, bestSet = c, true
			}
		}
		if !fbSet || c.DeltaErr < fallback.DeltaErr {
			fallback, fbSet = c, true
		}
	})
	if bestSet {
		return best
	}
	return fallback
}

// BestOverall returns the minimal-cell accepted candidate across all
// encodings (the per-technology winner reported in Table 4).
func (e *Explorer) BestOverall(tech envm.Tech) Candidate {
	var best Candidate
	bestSet := false
	for _, kind := range sparse.Kinds {
		c := e.Best(tech, kind)
		if !c.Accepted {
			continue
		}
		if !bestSet || c.TotalCells < best.TotalCells {
			best, bestSet = c, true
		}
	}
	if !bestSet {
		// Degenerate: nothing accepted; fall back to dense SLC.
		return e.Best(tech, sparse.KindDense)
	}
	return best
}

// EncodedLayerBits returns the per-weight-layer stored bits (data +
// parity) of a candidate this explorer produced, for the NVDLA workload
// model.
func (e *Explorer) EncodedLayerBits(c Candidate) []int64 {
	lps := e.Profiles[c.Kind]
	out := make([]int64, len(lps))
	for i, lp := range lps {
		out[i] = ares.TotalBits(layerDamage(lp, c.Tech, e.Opt.RetentionYears, c.Policies).Costs)
	}
	return out
}

// AreaBenefit returns the cell-count ratio of the naive baseline — a
// single-level-cell store of the uncompressed 16-bit weights, the
// abstract's "naive, single-level-cell eNVM solution" — to the candidate
// (up to 29x in the paper).
func (e *Explorer) AreaBenefit(c Candidate) float64 {
	naiveCells := e.PM.TotalWeights() * 16 // 1 bit per SLC cell
	if c.TotalCells == 0 {
		return math.Inf(1)
	}
	return float64(naiveCells) / float64(c.TotalCells)
}

// OptimizedSLCBenefit returns the cell ratio of the best *optimized*
// (pruned+clustered, sparse-encoded) SLC configuration to the candidate —
// the Section 5.1 metric ("relative to storing the same optimized and
// sparse-encoded weights in SLC-RRAM", avg 9.6x for MLC-CTT).
func (e *Explorer) OptimizedSLCBenefit(c Candidate) float64 {
	slc := e.BestOverall(envm.SLCRRAM)
	if c.TotalCells == 0 {
		return math.Inf(1)
	}
	return float64(slc.TotalCells) / float64(c.TotalCells)
}
