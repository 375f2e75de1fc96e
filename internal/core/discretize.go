// Package core implements the paper's contribution: identification of a
// dominant congested link from an end-end probe trace.
//
// The pipeline (§IV-§V) is: discretize the observed one-way delays into M
// symbols over [dmin, dmax] (approximating the unknown propagation delay
// with the minimum observed delay), treat each loss as a delay symbol with
// a missing value, fit an MMHD (or HMM) by EM, extract the posterior
// distribution of the virtual queuing delay of the lost probes, and apply
// the SDCL/WDCL hypothesis tests (Theorems 1 and 2). Once a dominant
// congested link is identified, the same distribution yields an upper
// bound on its maximum queuing delay (§IV-B).
package core

import (
	"errors"

	"dominantlink/internal/stats"
	"dominantlink/internal/trace"
)

// Discretization maps one-way delays to the symbols 1..M used by the
// models. Lo plays the role of the end-end propagation delay d_prop (the
// minimum observed delay when the true value is unknown, §V-A); Hi is the
// largest observed delay; queuing delay q = delay - Lo falls into M equal
// bins of width (Hi-Lo)/M.
type Discretization struct {
	M        int
	Lo, Hi   float64
	BinWidth float64
}

// Discretization failures.
var (
	errNeedSymbol  = errors.New("core: need at least one symbol")
	errNoDelivered = errors.New("core: no delivered probes to discretize")
)

// RangeQuantile is the quantile of the observed delays used as the top of
// the discretization range. Using a high quantile rather than the strict
// maximum clamps the few largest outliers into the top bin, which
// guarantees the top symbol has observed mass. Without this, a top bin
// reachable only by rare delay spikes is unobserved, and the EM fit can
// "hijack" it as a dedicated loss symbol (assign it loss probability ~1)
// instead of attributing losses to the delays actually surrounding them.
const RangeQuantile = 0.995

// NewDiscretization derives the delay range from the delivered probes in
// obs: [dmin, ~dmax] with the top given by RangeQuantile. knownProp > 0
// fixes the propagation delay; knownProp == 0 approximates it by the
// minimum observed delay (§V-A).
func NewDiscretization(obs []trace.Observation, m int, knownProp float64) (Discretization, error) {
	_, sc := gatherRows(obs)
	defer pipelinePool.Put(sc)
	return discretizeBatch(m, knownProp, sc)
}

// Symbol maps a one-way delay to its 1-based symbol.
func (d Discretization) Symbol(delay float64) int {
	return stats.Discretize(delay, d.Lo, d.Hi, d.M)
}

// QueuingUpper returns the upper edge, in seconds of queuing delay, of the
// bin holding the given symbol: symbol*BinWidth.
func (d Discretization) QueuingUpper(symbol int) float64 {
	if symbol < 1 {
		return 0
	}
	return float64(symbol) * d.BinWidth
}

// Encode converts a probe observation sequence into model input: Loss (0)
// for lost probes, the delay symbol otherwise.
func (d Discretization) Encode(obs []trace.Observation) []int {
	// The symbol buffer is returned to the caller, so it is not pooled.
	sc := pipelineScratch{symbols: make([]int, len(obs))}
	return encodeBatch(trace.BatchOfObservations(obs), d, &sc)
}

// ObservedPMF returns the distribution of the discretized queuing delays
// of the *delivered* probes (the "observed" curve of Fig. 5).
func ObservedPMF(obs []trace.Observation, d Discretization) stats.PMF {
	pmf := stats.NewPMF(d.M)
	for _, o := range obs {
		if o.Lost {
			continue
		}
		pmf[d.Symbol(o.Delay)-1]++
	}
	pmf.Normalize()
	return pmf
}

// TruthVirtualPMF returns the ground-truth distribution of the discretized
// virtual queuing delays of the lost probes (the "ns virtual" curves of
// Figs. 5-8), available only from simulation traces. trueProp is the
// path's propagation+transmission floor used to convert queuing delays to
// one-way delays before discretizing; pass tr.PropagationDelay.
func TruthVirtualPMF(tr *trace.Trace, d Discretization, trueProp float64) stats.PMF {
	pmf := stats.NewPMF(d.M)
	n := 0
	for _, g := range tr.Truth {
		if !g.Lost {
			continue
		}
		n++
		pmf[d.Symbol(trueProp+g.VirtualQueuing)-1]++
	}
	if n == 0 {
		return nil
	}
	pmf.Normalize()
	return pmf
}
