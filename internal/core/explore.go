package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"repro/internal/ares"
	"repro/internal/ecc"
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
func (c Candidate) Label() string {
	name := c.Kind.String()
	for _, p := range c.Policies {
		if p.ECC {
			return name + "+ECC"
		}
	}
	return name
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

// Evaluate scores one candidate: exact storage cost plus the surrogate
// expected error delta, against the model's error bound.
func (e *Explorer) Evaluate(tech envm.Tech, kind sparse.Kind, policies map[string]ares.StreamPolicy) Candidate {
	cand := Candidate{
		Model: e.PM.Model.Name, Tech: tech, Kind: kind, Policies: policies,
	}
	code := ecc.NewBlockCode(ares.ECCDataBits)
	var lds []ares.LayerDamage
	for _, lp := range e.Profiles[kind] {
		ld := ares.LayerDamage{
			Weights:  int(lp.FullWeights),
			SignalSS: lp.SubSignalSS * lp.Scale,
		}
		for _, sp := range lp.Streams {
			p, ok := policies[sp.Name]
			if !ok {
				panic(fmt.Sprintf("core: no policy for stream %q", sp.Name))
			}
			key := PolicyKey{BPC: p.BPC, ECC: p.ECC}
			probe := sp.Probes[key]

			cost := ares.StreamCost{Name: sp.Name, BPC: p.BPC, ECC: p.ECC, DataBits: sp.FullDataBits}
			if p.ECC {
				cost.ParityBits = code.ParityBits(int(sp.FullDataBits))
			}
			cost.Cells = envm.CellsFor(cost.TotalBits(), p.BPC)
			ld.Costs = append(ld.Costs, cost)

			sc := envm.StoreConfig{Tech: tech, BPC: p.BPC, Gray: p.ECC, RetentionYears: e.Opt.RetentionYears}
			sd := ares.StreamDamage{
				Name:      sp.Name,
				LambdaEff: ares.LambdaEff(sp.FullDataBits, sc, p.ECC),
				DStruct:   probe.DStruct,
				DNSR:      probe.DNSR,
				DMismatch: probe.DMismatch,
			}
			sd.Catastrophic = probe.Catastrophic()
			if !sd.Catastrophic && lp.Scale > 1 {
				// Point damage dilutes at full scale (the event corrupts a
				// fixed number of weights, not a fixed fraction).
				sd.DStruct /= lp.Scale
				sd.DNSR /= lp.Scale
				sd.DMismatch /= lp.Scale
			}
			ld.Streams = append(ld.Streams, sd)

			cand.TotalDataBits += cost.DataBits
			cand.TotalParityBits += cost.ParityBits
			cand.TotalCells += cost.Cells
			if p.BPC > cand.MaxBPC {
				cand.MaxBPC = p.BPC
			}
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

// Best finds the minimal-cell accepted candidate for one encoding on one
// technology (a cell of Figure 6). If no combination is accepted, the
// lowest-delta candidate is returned with Accepted=false.
func (e *Explorer) Best(tech envm.Tech, kind sparse.Kind) Candidate {
	names := kind.Streams()
	choices := PolicyChoices(minInt(3, tech.MaxBitsPerCell))
	var best, fallback Candidate
	bestSet, fbSet := false, false

	assign := make([]PolicyKey, len(names))
	var walk func(i int)
	walk = func(i int) {
		if i == len(names) {
			policies := make(map[string]ares.StreamPolicy, len(names))
			for j, n := range names {
				policies[n] = assign[j].Policy()
			}
			c := e.Evaluate(tech, kind, policies)
			if c.Accepted {
				if !bestSet || c.TotalCells < best.TotalCells {
					best, bestSet = c, true
				}
			}
			if !fbSet || c.DeltaErr < fallback.DeltaErr {
				fallback, fbSet = c, true
			}
			return
		}
		for _, key := range choices {
			assign[i] = key
			walk(i + 1)
		}
	}
	walk(0)
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
// parity) of a candidate, for the NVDLA workload model.
func (e *Explorer) EncodedLayerBits(c Candidate) []int64 {
	code := ecc.NewBlockCode(ares.ECCDataBits)
	lps := e.Profiles[c.Kind]
	out := make([]int64, len(lps))
	for i, lp := range lps {
		var bits int64
		for _, sp := range lp.Streams {
			p := c.Policies[sp.Name]
			bits += sp.FullDataBits
			if p.ECC {
				bits += code.ParityBits(int(sp.FullDataBits))
			}
		}
		out[i] = bits
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
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
