package experiments

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/runner"
)

// Figure41 is the read miss ratio versus total cache size for each set
// size. The total size is kept constant as associativity doubles, so a
// doubling in associativity halves the number of sets, and random
// replacement is used regardless of set size — all as in the paper.
type Figure41 struct {
	TotalKB  []int
	SetSizes []int
	// MissRatio[a][s] is the geometric-mean read miss ratio at
	// SetSizes[a], TotalKB[s].
	MissRatio [][]float64
}

// RunFigure41 sweeps total size × set size as one runner sweep over the
// full (set size × total size × trace) grid.
func (s *Suite) RunFigure41(ctx context.Context, sizesKB, setSizes []int) (*Figure41, error) {
	if sizesKB == nil {
		sizesKB = TotalSizesKB
	}
	if setSizes == nil {
		setSizes = SetSizes
	}
	var cells []runner.Cell[cellOut]
	for _, assoc := range setSizes {
		var orgs []engine.Org
		for _, kb := range sizesKB {
			org := OrgFor(kb, 4, assoc)
			orgs = append(orgs, org)
			cells = s.counterCellsFor(cells, org)
		}
		if assoc == 1 {
			s.registerChain(orgs)
		}
	}
	outs, err := s.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	out := &Figure41{TotalKB: sizesKB, SetSizes: setSizes}
	n := len(s.Traces)
	for a := range setSizes {
		row := make([]float64, len(sizesKB))
		for k := range sizesKB {
			base := (a*len(sizesKB) + k) * n
			vals := make([]float64, n)
			for i := 0; i < n; i++ {
				vals[i] = outs[base+i].Warm.ReadMissRatio()
			}
			row[k] = ratioGeoMean(vals)
		}
		out.MissRatio = append(out.MissRatio, row)
	}
	return out, nil
}

// Figure42 is the execution-time grid per set size (the paper overlays the
// set-associative curves on the Figure 3-3 axes).
type Figure42 struct {
	SetSizes []int
	Grids    []*analysis.PerfGrid // one per set size, same axes
}

// RunFigure42 sweeps (size × cycle time) for each set size.
func (s *Suite) RunFigure42(ctx context.Context, sizesKB, cycleNs, setSizes []int) (*Figure42, error) {
	if setSizes == nil {
		setSizes = SetSizes
	}
	out := &Figure42{SetSizes: setSizes}
	for _, assoc := range setSizes {
		g, err := s.SpeedSizeGrid(ctx, sizesKB, cycleNs, assoc)
		if err != nil {
			return nil, err
		}
		out.Grids = append(out.Grids, g)
	}
	return out, nil
}

// BreakEvenMap is the Figure 4-3/4-4/4-5 analysis for one set size: the
// cycle-time degradation available to a set-associative implementation
// before it loses to direct mapped, over the whole (size × cycle time)
// space.
type BreakEvenMap struct {
	SetSize int
	SizesKB []int
	CycleNs []int
	// NsAvailable[i][j] is the break-even degradation at SizesKB[i],
	// CycleNs[j].
	NsAvailable [][]float64
}

// RunBreakEven derives the break-even maps from a Figure 4-2 result. Grids
// are median-smoothed across cycle times first, as the paper smoothed the
// 56 ns quantization artifact, "to the extent of introducing
// non-monotonicities ... it severely distorted the analysis of set
// associativity".
func RunBreakEven(f *Figure42) ([]*BreakEvenMap, error) {
	if len(f.Grids) == 0 || f.SetSizes[0] != 1 {
		return nil, fmt.Errorf("experiments: break-even needs the direct-mapped grid first")
	}
	dm := f.Grids[0].Smooth()
	var out []*BreakEvenMap
	for k := 1; k < len(f.Grids); k++ {
		sa := f.Grids[k].Smooth()
		be, err := analysis.BreakEven(dm, sa)
		if err != nil {
			return nil, err
		}
		out = append(out, &BreakEvenMap{
			SetSize:     f.SetSizes[k],
			SizesKB:     sa.SizesKB,
			CycleNs:     sa.CycleNs,
			NsAvailable: be,
		})
	}
	return out, nil
}

// Table3 rephrases the speed–size tradeoff in terms of cache miss penalty:
// for each cache size, the cycles per reference and the value of a cache
// doubling expressed as a fraction of the cycle time, at each miss penalty.
type Table3 struct {
	// PenaltyCycles are the read times in cycles (Table 2 maps them to
	// cycle times).
	PenaltyCycles []int
	CycleNs       []int // the cycle time realizing each penalty
	SizesKB       []int
	// CPR[r][c] is cycles per reference at PenaltyCycles[r], SizesKB[c].
	CPR [][]float64
	// DoublingFrac[r][c] is the cycle-time degradation equivalent to a
	// doubling of cache size, as a fraction of the cycle time.
	DoublingFrac [][]float64
}

// RunTable3 derives Table 3 from a speed–size grid. The grid must contain
// each requested size and its doubling, and each requested cycle time.
func RunTable3(g *analysis.PerfGrid, sizesKB []int) (*Table3, error) {
	// Penalty → cycle time, from Table 2: 13→24, 12→28, 11→32, 10→36,
	// 9→48, 8→60.
	penalties := []int{13, 12, 11, 10, 9, 8}
	cycleNs := []int{24, 28, 32, 36, 48, 60}
	if sizesKB == nil {
		sizesKB = []int{4, 16, 64, 256}
	}
	sizeIdx := make([]int, len(sizesKB))
	for k, kb := range sizesKB {
		sizeIdx[k] = -1
		for i, s := range g.SizesKB {
			if s == kb {
				sizeIdx[k] = i
			}
		}
		if sizeIdx[k] < 0 || sizeIdx[k] >= len(g.SizesKB)-1 {
			return nil, fmt.Errorf("experiments: table 3 needs size %d KB and its doubling in the grid", kb)
		}
	}
	cycleIdx := make([]int, len(cycleNs))
	for r, cy := range cycleNs {
		cycleIdx[r] = -1
		for j, c := range g.CycleNs {
			if c == cy {
				cycleIdx[r] = j
			}
		}
		if cycleIdx[r] < 0 {
			return nil, fmt.Errorf("experiments: table 3 needs cycle time %d ns in the grid", cy)
		}
	}
	if g.CyclesPerRef == nil {
		return nil, fmt.Errorf("experiments: table 3 needs cycles-per-reference data")
	}
	out := &Table3{PenaltyCycles: penalties, CycleNs: cycleNs, SizesKB: sizesKB}
	for r := range penalties {
		cprRow := make([]float64, len(sizesKB))
		fracRow := make([]float64, len(sizesKB))
		for c := range sizesKB {
			i, j := sizeIdx[c], cycleIdx[r]
			cprRow[c] = g.CyclesPerRef[i][j]
			slope, err := g.SlopeNsPerDoubling(i, cycleNs[r])
			if err != nil {
				return nil, err
			}
			fracRow[c] = slope / float64(cycleNs[r])
		}
		out.CPR = append(out.CPR, cprRow)
		out.DoublingFrac = append(out.DoublingFrac, fracRow)
	}
	return out, nil
}
