package core

import (
	"repro/internal/ares"
	"repro/internal/sparse"
)

// PolicyKey identifies a per-stream storage policy in the search space.
type PolicyKey struct {
	BPC int
	ECC bool
}

// Policy converts the key to an ares policy.
func (k PolicyKey) Policy() ares.StreamPolicy { return ares.StreamPolicy{BPC: k.BPC, ECC: k.ECC} }

// maxProbedBPC is the densest bits-per-cell the search probes and
// enumerates: MLC3, the densest cell in the evaluated set.
const maxProbedBPC = 3

// PolicyChoices enumerates the per-stream search space: 1..maxBPC bits
// per cell, each with and without ECC. (ECC at SLC is allowed but never
// useful; the explorer prunes it by cost.)
func PolicyChoices(maxBPC int) []PolicyKey {
	var out []PolicyKey
	for bpc := 1; bpc <= maxBPC; bpc++ {
		out = append(out, PolicyKey{BPC: bpc}, PolicyKey{BPC: bpc, ECC: true})
	}
	return out
}

// StreamProfile is one stored structure's probe table.
type StreamProfile struct {
	Name string
	// SubDataBits is the encoded size of the subsampled representation;
	// FullDataBits extrapolates to the real layer.
	SubDataBits  int64
	FullDataBits int64
	// Probes holds the measured per-event damage under every policy, at
	// the (possibly subsampled) profile scale.
	Probes map[PolicyKey]ares.Damage
}

// LayerProfile is the complete fault-exposure profile of one layer under
// one encoding kind. Damage probes are technology-independent; fault
// intensities are attached later per technology.
type LayerProfile struct {
	LayerName string
	Kind      sparse.Kind
	Scale     float64
	// SubWeights / SubSignalSS describe the profiled representation.
	SubWeights  int
	SubSignalSS float64
	FullWeights int64
	Streams     []StreamProfile
}

// ProfileOptions tunes profiling.
type ProfileOptions struct {
	// DamageTrials per probe (0 = ares.DefaultProbeTrials).
	DamageTrials int
	Seed         uint64
	// RetentionYears ages the device fault model during evaluation
	// (0 = write-time reliability only).
	RetentionYears float64
}

// ProfileLayer encodes the prepared layer under kind and probes every
// stream x policy combination up to maxProbedBPC.
func ProfileLayer(pl PreparedLayer, kind sparse.Kind, opt ProfileOptions) LayerProfile {
	if opt.DamageTrials == 0 {
		opt.DamageTrials = ares.DefaultProbeTrials
	}
	cl := pl.CL
	enc := sparse.Must(sparse.Encode(kind, cl.Indices, cl.Rows, cl.Cols, cl.IndexBits, cl.Centroids))
	lp := LayerProfile{
		LayerName:   pl.Name,
		Kind:        kind,
		Scale:       pl.Scale,
		SubWeights:  len(cl.Indices),
		FullWeights: pl.FullWeights(),
	}
	for _, idx := range cl.Indices {
		w := float64(cl.Centroids[idx])
		lp.SubSignalSS += w * w
	}
	for i, s := range enc.Streams() {
		sp := StreamProfile{
			Name:         s.Name,
			SubDataBits:  s.SizeBits(),
			FullDataBits: int64(float64(s.SizeBits()) * pl.Scale),
			Probes:       make(map[PolicyKey]ares.Damage),
		}
		for _, key := range PolicyChoices(maxProbedBPC) {
			sp.Probes[key] = ares.ProbeStreamDamage(enc, i, cl, key.Policy(),
				opt.DamageTrials, opt.Seed+uint64(i)*131+uint64(key.BPC)*7+b2u(key.ECC))
		}
		lp.Streams = append(lp.Streams, sp)
	}
	return lp
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
