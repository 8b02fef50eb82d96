package core

import (
	"repro/internal/envm"
	"repro/internal/nvsim"
	"repro/internal/sparse"
)

// StorageSummary is one row of Table 4: the per-technology optimal
// storage configuration with its characterized memory array.
type StorageSummary struct {
	Model     string
	Tech      envm.Tech
	Candidate Candidate
	// CapacityMB is the stored capacity in decimal MB (data + parity).
	CapacityMB float64
	// Array is the read-EDP-optimal NVSim characterization sized so its
	// cell count matches the candidate.
	Array nvsim.Result
	// WriteTimeSec is the Table 5 estimate: time to program all weights.
	WriteTimeSec float64
}

// Summarize picks the technology's best candidate and characterizes the
// memory array that stores it.
func (e *Explorer) Summarize(tech envm.Tech, target nvsim.Target) StorageSummary {
	c := e.BestOverall(tech)
	return e.SummarizeCandidate(c, target)
}

// SummarizeCandidate characterizes an explicit candidate.
func (e *Explorer) SummarizeCandidate(c Candidate, target nvsim.Target) StorageSummary {
	// nvsim models a single bits-per-cell array; size it so the cell
	// count matches the mixed-policy candidate at its dominant (max) BPC.
	capacityBits := c.TotalCells * int64(c.MaxBPC)
	arr := nvsim.Characterize(nvsim.Config{
		Tech: c.Tech, BPC: c.MaxBPC, CapacityBits: capacityBits, Target: target,
	})
	return StorageSummary{
		Model:        c.Model,
		Tech:         c.Tech,
		Candidate:    c,
		CapacityMB:   float64(c.TotalBits()) / 8e6,
		Array:        arr,
		WriteTimeSec: c.Tech.WriteTimeSeconds(c.TotalCells, c.MaxBPC),
	}
}

// Figure6Row is the minimal-cells result for one encoding strategy on
// one technology (one bar of Figure 6).
type Figure6Row struct {
	Model    string
	Tech     string
	Encoding string
	Cells    int64
	MaxBPC   int
	Accepted bool
	DeltaErr float64
}

// Figure6 sweeps every encoding on the given technologies and returns
// the minimal-cell configurations.
func (e *Explorer) Figure6(techs []envm.Tech) []Figure6Row {
	var out []Figure6Row
	for _, tech := range techs {
		for _, kind := range sparse.Kinds {
			c := e.Best(tech, kind)
			out = append(out, Figure6Row{
				Model:    c.Model,
				Tech:     tech.Name,
				Encoding: c.Label(),
				Cells:    c.TotalCells,
				MaxBPC:   c.MaxBPC,
				Accepted: c.Accepted,
				DeltaErr: c.DeltaErr,
			})
		}
	}
	return out
}

// Table2Row reproduces one row block of Table 2: the storage footprint of
// each representation.
type Table2Row struct {
	Model            string
	Params           int64
	SparsityAchieved float64
	ClusterIndexBits int
	Raw16MB          float64
	PCMB             float64
	CSRMB            float64
	BitMaskMB        float64
}

// Table2 computes the model-optimization size comparison. It requires a
// full-fidelity preparation (no subsampling) for exact sizes; subsampled
// layers are extrapolated through their scale factor.
func Table2(pm *PreparedModel) Table2Row {
	row := Table2Row{
		Model:            pm.Model.Name,
		ClusterIndexBits: pm.Model.Meta.ClusterIndexBits,
	}
	var nnz, total float64
	for _, pl := range pm.Layers {
		cl := pl.CL
		row.Params += pl.FullWeights()
		nnz += float64(cl.NNZ()) * pl.Scale
		total += float64(len(cl.Indices)) * pl.Scale

		pc := float64(cl.RawBits()) * pl.Scale
		csr := float64(sparse.Must(sparse.Encode(sparse.KindCSR, cl.Indices, cl.Rows, cl.Cols, cl.IndexBits, cl.Centroids)).SizeBits()) * pl.Scale
		bm := float64(sparse.Must(sparse.Encode(sparse.KindBitMask, cl.Indices, cl.Rows, cl.Cols, cl.IndexBits, cl.Centroids)).SizeBits()) * pl.Scale
		row.PCMB += pc / 8e6
		row.CSRMB += csr / 8e6
		row.BitMaskMB += bm / 8e6
	}
	row.Raw16MB = float64(row.Params) * 16 / 8e6
	if total > 0 {
		row.SparsityAchieved = 1 - nnz/total
	}
	return row
}
