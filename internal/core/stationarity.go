package core

import (
	"math"

	"dominantlink/internal/trace"
)

// The identification assumes the loss and delay processes are stationary
// over the probing interval (§III); the paper's Internet experiments
// "select a stationary probing sequence of 20 min" from each 1-hour
// trace. StationarityCheck provides the selection tool: it splits a trace
// into blocks and compares per-block loss rates and delay quantiles
// against the whole-trace values.

// StationarityConfig tunes the check. The zero value uses 10 blocks, a
// 3x loss-rate band and a 50% median-delay band.
type StationarityConfig struct {
	Blocks         int     // number of equal-length blocks (default 10)
	LossRateFactor float64 // max allowed block/overall loss-rate ratio (default 3)
	MedianBand     float64 // max relative deviation of block median delay (default 0.5)
}

func (c *StationarityConfig) defaults() {
	if c.Blocks == 0 {
		c.Blocks = 10
	}
	if c.LossRateFactor == 0 {
		c.LossRateFactor = 3
	}
	if c.MedianBand == 0 {
		c.MedianBand = 0.5
	}
}

// BlockStats summarizes one block of the trace.
type BlockStats struct {
	Start, End  int // observation index range [Start, End)
	LossRate    float64
	MedianDelay float64
}

// StationarityReport is the outcome of StationarityCheck.
type StationarityReport struct {
	Blocks   []BlockStats
	LossRate float64 // whole trace
	Median   float64 // whole trace, delivered probes
	// RefLossRate is the median of the per-block loss rates — the robust
	// reference the bands are anchored to (a loss storm in part of the
	// trace must not mask itself by inflating the mean).
	RefLossRate float64
	Stationary  bool
	// Violations counts blocks outside the allowed bands.
	Violations int
}

// StationarityCheck splits the trace into cfg.Blocks equal blocks and
// flags the trace non-stationary when any block's loss rate leaves the
// [overall/factor, overall*factor] band (blocks with zero losses are only
// flagged when the overall rate is substantial) or its median delay
// deviates from the overall median by more than the configured fraction
// of the delay spread.
func StationarityCheck(tr *trace.Trace, cfg StationarityConfig) StationarityReport {
	b, sc := gatherRows(tr.Observations)
	defer pipelinePool.Put(sc)
	return stationarityCheckBatch(b, cfg, sc)
}

// blockViolates applies the loss-rate and median-delay bands to a block.
func blockViolates(bs BlockStats, rep StationarityReport, cfg StationarityConfig, spread float64) bool {
	if rep.RefLossRate > 0 {
		ratio := bs.LossRate / rep.RefLossRate
		switch {
		case bs.LossRate == 0:
			// An empty block is only suspicious when losses are otherwise
			// plentiful.
			if rep.RefLossRate*float64(bs.End-bs.Start) > 10 {
				return true
			}
		case ratio > cfg.LossRateFactor || ratio < 1/cfg.LossRateFactor:
			return true
		}
	} else if bs.LossRate > 0 && bs.LossRate*float64(bs.End-bs.Start) > 10 {
		// Reference says "lossless", block has a storm.
		return true
	}
	if spread > 0 && bs.MedianDelay > 0 {
		if math.Abs(bs.MedianDelay-rep.Median) > cfg.MedianBand*spread {
			return true
		}
	}
	return false
}

// LongestStationarySegment returns the [from, to) observation range of
// the longest run of consecutive non-violating blocks, for carving a
// stationary probing sequence out of a longer trace as the paper does
// with its 1-hour captures.
func LongestStationarySegment(tr *trace.Trace, cfg StationarityConfig) (from, to int) {
	cfg.defaults()
	rep := StationarityCheck(tr, cfg)
	if len(rep.Blocks) == 0 {
		return 0, len(tr.Observations)
	}
	ok := make([]bool, len(rep.Blocks))
	for i, b := range rep.Blocks {
		ok[i] = !blockViolates(b, rep, cfg, 0)
	}
	bestLen, bestStart, curStart := 0, 0, -1
	for i := 0; i <= len(ok); i++ {
		if i < len(ok) && ok[i] {
			if curStart < 0 {
				curStart = i
			}
			continue
		}
		if curStart >= 0 && i-curStart > bestLen {
			bestLen, bestStart = i-curStart, curStart
		}
		curStart = -1
	}
	if bestLen == 0 {
		return 0, len(tr.Observations)
	}
	return rep.Blocks[bestStart].Start, rep.Blocks[bestStart+bestLen-1].End
}
