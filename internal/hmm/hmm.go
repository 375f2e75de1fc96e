// Package hmm implements a discrete hidden Markov model whose observation
// alphabet is augmented with a "loss" outcome: at each step the chain is in
// a hidden state i, emits a delay symbol m with probability B[i][m], and
// the symbol is then erased (observed as a loss) with probability C[m].
// This is the paper's interpretation of a probe loss as a delay observation
// with a missing value (§V), grafted onto the classical Baum-Welch EM of
// Rabiner [31].
package hmm

import (
	"errors"
	"math"

	"dominantlink/internal/stats"
)

// Loss is the observation value that marks a lost probe. Delay symbols are
// 1..M.
const Loss = 0

// ErrCanceled reports a fit aborted through Config.Cancel before it
// converged or reached MaxIter.
var ErrCanceled = errors.New("hmm: fit canceled")

// canceled reports whether the cancel channel has been closed.
func canceled(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// Model holds the parameters of the loss-augmented HMM.
type Model struct {
	N int // hidden states
	M int // delay symbols

	Pi []float64   // initial hidden-state distribution, len N
	A  [][]float64 // hidden-state transition matrix, N x N
	B  [][]float64 // emission matrix, N x M: P(symbol m+1 | state i)
	C  []float64   // loss probabilities, len M: P(loss | symbol m+1)
}

// Config controls the EM fit.
type Config struct {
	HiddenStates int     // N (required, >= 1)
	Symbols      int     // M (required, >= 1)
	Threshold    float64 // convergence threshold on max parameter change (default 1e-3)
	MaxIter      int     // iteration cap (default 500)
	Seed         int64   // RNG seed for the random initialization

	// Cancel, when non-nil, aborts the fit between EM iterations once the
	// channel is closed: Fit returns ErrCanceled instead of a result. It is
	// how context deadlines reach the inner loop — a fit on a pathological
	// trace stops within one iteration of the deadline instead of running
	// to MaxIter. A nil Cancel never aborts and changes nothing.
	Cancel <-chan struct{}
}

func (c *Config) defaults() error {
	if c.HiddenStates < 1 {
		return errors.New("hmm: HiddenStates must be >= 1")
	}
	if c.Symbols < 1 {
		return errors.New("hmm: Symbols must be >= 1")
	}
	if c.Threshold == 0 {
		c.Threshold = 1e-3
	}
	if c.MaxIter == 0 {
		c.MaxIter = 500
	}
	return nil
}

// Result reports how the fit went and carries the virtual-delay posterior.
type Result struct {
	Iterations int
	LogLik     float64
	Converged  bool
	// VirtualPMF is P(V = m | loss): the inferred distribution of the
	// discretized virtual queuing delay of the lost probes, eq. (5) of the
	// paper. Nil when the observation sequence contains no losses.
	VirtualPMF stats.PMF
}

const probFloor = 1e-12

// Scratch holds the forward-backward and M-step work buffers of an EM fit
// so the hot loop allocates nothing per iteration. A Scratch grows to the
// largest (T, N, M) it has seen and may be reused across fits of the same
// or smaller dimensions — one Scratch per worker goroutine; it is not safe
// for concurrent use. The Model returned by FitWithScratch aliases the
// scratch's double-buffered parameter sets and is invalidated by the next
// fit through the same Scratch.
type Scratch struct {
	t, n, m int

	alphaBack, gammaBack []float64 // flat T*N backings
	alpha, gamma         [][]float64
	scale                []float64
	beta, prevBeta       []float64
	xiNum                [][]float64 // N x N
	bNum                 [][]float64 // N x M
	lossNum, symCount    []float64   // M
	weightBack           []float64   // N*M loss-weight backing
	weights              [][]float64
	denomA, denomB       []float64 // fused M-step denominators, len N

	// Emission rows: the forward-backward needs P(obs[t] | state i) for
	// every step, but there are only M+1 distinct observations (loss +
	// each symbol), so the M+1 distinct rows are computed once per E-step
	// from the current parameters and every step t just points at its
	// row. The per-step pointer table depends only on obs, so it is
	// rebuilt only when obs changes (lastObs tracks the sequence the
	// table was built for) — the EM loop re-enters with the same obs
	// every iteration, and every restart of the same trace reuses it.
	emisRowBack []float64   // (M+1)*N backing
	emisRow     [][]float64 // row o = emission row of observation o
	stepRows    [][]float64 // len T, stepRows[t] = emisRow[obs[t]]
	lastObs     []int

	models [2]*Model // double-buffered parameter sets for emStep
}

// NewScratch returns an empty Scratch; buffers are grown on first use.
func NewScratch() *Scratch { return &Scratch{} }

// ensure sizes every buffer for a T-step fit with N hidden states and M
// symbols, reusing existing allocations when they are large enough.
func (sc *Scratch) ensure(T, n, m int) {
	if sc.t == T && sc.n == n && sc.m == m {
		return
	}
	sc.t, sc.n, sc.m = T, n, m
	sc.alphaBack = growFloats(sc.alphaBack, T*n)
	sc.gammaBack = growFloats(sc.gammaBack, T*n)
	sc.alpha = carveRows(sc.alpha, sc.alphaBack, T, n)
	sc.gamma = carveRows(sc.gamma, sc.gammaBack, T, n)
	sc.scale = growFloats(sc.scale, T)
	sc.beta = growFloats(sc.beta, n)
	sc.prevBeta = growFloats(sc.prevBeta, n)
	sc.xiNum = growMatrix(sc.xiNum, n, n)
	sc.bNum = growMatrix(sc.bNum, n, m)
	sc.lossNum = growFloats(sc.lossNum, m)
	sc.symCount = growFloats(sc.symCount, m)
	sc.weightBack = growFloats(sc.weightBack, n*m)
	sc.weights = carveRows(sc.weights, sc.weightBack, n, m)
	sc.denomA = growFloats(sc.denomA, n)
	sc.denomB = growFloats(sc.denomB, n)
	sc.emisRowBack = growFloats(sc.emisRowBack, (m+1)*n)
	sc.emisRow = carveRows(sc.emisRow, sc.emisRowBack, m+1, n)
	if cap(sc.stepRows) < T {
		sc.stepRows = make([][]float64, T)
	}
	sc.stepRows = sc.stepRows[:T]
	sc.lastObs = sc.lastObs[:0] // dimensions changed: invalidate the table
	sc.models[0] = newZeroModel(n, m)
	sc.models[1] = newZeroModel(n, m)
}

// emissionRows returns the per-step emission table e with e[t][i] =
// P(obs[t] | state i) under m's current parameters. The M+1 distinct rows
// are recomputed on every call (the parameters move each EM iteration);
// the per-step pointers are rebuilt only when obs differs from the
// sequence they were last built for.
func (sc *Scratch) emissionRows(m *Model, obs []int) [][]float64 {
	n, M := m.N, m.M
	lossRow := sc.emisRow[Loss]
	for i := 0; i < n; i++ {
		bi := m.B[i]
		var s float64
		for k := 0; k < M; k++ {
			s += bi[k] * m.C[k]
		}
		lossRow[i] = s
	}
	for v := 1; v <= M; v++ {
		row := sc.emisRow[v]
		keep := 1 - m.C[v-1]
		for i := 0; i < n; i++ {
			row[i] = m.B[i][v-1] * keep
		}
	}
	steps := sc.stepRows[:len(obs)]
	if !intsEqual(sc.lastObs, obs) {
		for t, o := range obs {
			steps[t] = sc.emisRow[o]
		}
		sc.lastObs = append(sc.lastObs[:0], obs...)
	}
	return steps
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growMatrix(m [][]float64, rows, cols int) [][]float64 {
	if cap(m) < rows {
		m = make([][]float64, rows)
	}
	m = m[:rows]
	for i := range m {
		m[i] = growFloats(m[i], cols)
	}
	return m
}

// carveRows reslices backing into rows slices of length cols.
func carveRows(rows [][]float64, backing []float64, n, cols int) [][]float64 {
	if cap(rows) < n {
		rows = make([][]float64, n)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = backing[i*cols : (i+1)*cols]
	}
	return rows
}

func newZeroModel(n, m int) *Model {
	mod := &Model{N: n, M: m}
	mod.Pi = make([]float64, n)
	mod.A = make([][]float64, n)
	for i := range mod.A {
		mod.A[i] = make([]float64, n)
	}
	mod.B = make([][]float64, n)
	for i := range mod.B {
		mod.B[i] = make([]float64, m)
	}
	mod.C = make([]float64, m)
	return mod
}

// copyInto copies m's parameters into dst (same dimensions).
func (m *Model) copyInto(dst *Model) {
	dst.N, dst.M = m.N, m.M
	copy(dst.Pi, m.Pi)
	for i := range m.A {
		copy(dst.A[i], m.A[i])
	}
	for i := range m.B {
		copy(dst.B[i], m.B[i])
	}
	copy(dst.C, m.C)
}

// NewRandomModel builds a model with uniform Pi, row-random A and B, and
// C initialized to the empirical loss fraction of obs spread uniformly
// over symbols, following Rabiner's guidance that B (and here C) matter
// most and benefit from data-informed starting points.
func NewRandomModel(n, m int, obs []int, rng *stats.RNG) *Model {
	mod := &Model{N: n, M: m}
	mod.Pi = uniformVec(n)
	mod.A = randomStochastic(n, n, rng)
	mod.B = randomStochastic(n, m, rng)
	lossFrac := 0.0
	for _, o := range obs {
		if o == Loss {
			lossFrac++
		}
	}
	if len(obs) > 0 {
		lossFrac /= float64(len(obs))
	}
	c0 := math.Max(lossFrac, 0.01)
	mod.C = make([]float64, m)
	for i := range mod.C {
		mod.C[i] = c0
	}
	return mod
}

func uniformVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / float64(n)
	}
	return v
}

func randomStochastic(rows, cols int, rng *stats.RNG) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		row := make([]float64, cols)
		var sum float64
		for j := range row {
			row[j] = 0.5 + rng.Float64() // bounded away from zero
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
		m[i] = row
	}
	return m
}

// emission returns P(observation at t | hidden state i) for the given
// observation (Loss or symbol).
func (m *Model) emission(i, obs int) float64 {
	if obs == Loss {
		var s float64
		for k := 0; k < m.M; k++ {
			s += m.B[i][k] * m.C[k]
		}
		return s
	}
	return m.B[i][obs-1] * (1 - m.C[obs-1])
}

// validateObs checks that every observation is Loss or in 1..M.
func validateObs(obs []int, mSym int) error {
	if len(obs) == 0 {
		return errors.New("hmm: empty observation sequence")
	}
	for t, o := range obs {
		if o != Loss && (o < 1 || o > mSym) {
			return errors.New("hmm: observation out of range at index " + itoa(t))
		}
	}
	return nil
}

func itoa(v int) string {
	// strconv-free tiny helper to keep the error path allocation-light.
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// forwardBackward runs one scaled E-step. It returns gamma (T x N) and the
// transition accumulators; the scale factors stay in sc for
// Scratch.logLik. The returned slices alias sc's buffers and are
// invalidated by the next use of sc.
//
// The recursions use the shared emission rows of Scratch.emissionRows; all
// floating-point operations run in the same order as the textbook
// formulation they replaced, so fitted parameters are bit-identical (the
// golden regression test pins this).
func (m *Model) forwardBackward(obs []int, sc *Scratch) (gamma [][]float64, xiNum [][]float64) {
	T := len(obs)
	n := m.N
	sc.ensure(T, n, m.M)
	e := sc.emissionRows(m, obs)
	alpha := sc.alpha
	scale := sc.scale
	// Forward.
	a0, e0 := alpha[0], e[0]
	var c0 float64
	for i := 0; i < n; i++ {
		a0[i] = m.Pi[i] * e0[i]
		c0 += a0[i]
	}
	if c0 <= 0 {
		c0 = probFloor
	}
	for i := 0; i < n; i++ {
		a0[i] /= c0
	}
	scale[0] = c0
	prev := a0
	for t := 1; t < T; t++ {
		at, et := alpha[t], e[t]
		var ct float64
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += prev[i] * m.A[i][j]
			}
			at[j] = s * et[j]
			ct += at[j]
		}
		if ct <= 0 {
			ct = probFloor
		}
		for j := 0; j < n; j++ {
			at[j] /= ct
		}
		scale[t] = ct
		prev = at
	}
	// Backward, with gamma and xi accumulation.
	beta := sc.beta
	for i := range beta {
		beta[i] = 1
	}
	gamma = sc.gamma
	copy(gamma[T-1], alpha[T-1])
	xiNum = sc.xiNum
	for i := range xiNum {
		row := xiNum[i]
		for j := range row {
			row[j] = 0
		}
	}
	prevBeta := sc.prevBeta
	for t := T - 2; t >= 0; t-- {
		copy(prevBeta, beta)
		at, gt, et1 := alpha[t], gamma[t], e[t+1]
		ct1 := scale[t+1]
		for i := 0; i < n; i++ {
			rowA := m.A[i]
			var s float64
			for j := 0; j < n; j++ {
				s += rowA[j] * et1[j] * prevBeta[j]
			}
			beta[i] = s / ct1
		}
		var gsum float64
		for i := 0; i < n; i++ {
			gt[i] = at[i] * beta[i]
			gsum += gt[i]
		}
		if gsum > 0 {
			for i := 0; i < n; i++ {
				gt[i] /= gsum
			}
		}
		for i := 0; i < n; i++ {
			av := at[i]
			if av == 0 {
				continue
			}
			rowA, rowXi := m.A[i], xiNum[i]
			for j := 0; j < n; j++ {
				rowXi[j] += av * rowA[j] * et1[j] * prevBeta[j] / ct1
			}
		}
	}
	return gamma, xiNum
}

// logLik returns log P(obs | model) for the model of sc's last E-step over
// a T-step sequence: the sum of the log scale factors in step order.
func (sc *Scratch) logLik(T int) float64 {
	var ll float64
	for _, c := range sc.scale[:T] {
		ll += math.Log(c)
	}
	return ll
}

// lossWeightInto fills w with w(i,m) = P(symbol = m+1 | hidden state i,
// loss): the posterior over the erased symbol given the hidden state.
func (m *Model) lossWeightInto(i int, w []float64) {
	var sum float64
	for k := 0; k < m.M; k++ {
		w[k] = m.B[i][k] * m.C[k]
		sum += w[k]
	}
	if sum > 0 {
		for k := range w {
			w[k] /= sum
		}
	}
}

// lossWeight returns a freshly allocated loss-weight row for state i.
func (m *Model) lossWeight(i int) []float64 {
	w := make([]float64, m.M)
	m.lossWeightInto(i, w)
	return w
}

// Fit runs EM from a random start until the parameters move by less than
// cfg.Threshold (max absolute change) or MaxIter is reached.
func Fit(obs []int, cfg Config) (*Model, *Result, error) {
	return FitWithScratch(obs, cfg, NewScratch())
}

// FitWithScratch is Fit with caller-owned work buffers, for callers that
// run many fits (EM restarts, batch identification): the hot loop performs
// no per-iteration allocations. The returned Model aliases sc and is
// invalidated by the next fit through the same Scratch; the Result (and
// its VirtualPMF) is independent of sc. FitWithScratch is deterministic in
// (obs, cfg): reusing a scratch never changes the fit.
func FitWithScratch(obs []int, cfg Config, sc *Scratch) (*Model, *Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	if err := validateObs(obs, cfg.Symbols); err != nil {
		return nil, nil, err
	}
	sc.ensure(len(obs), cfg.HiddenStates, cfg.Symbols)
	rng := stats.NewRNG(cfg.Seed)
	model, spare := sc.models[0], sc.models[1]
	NewRandomModel(cfg.HiddenStates, cfg.Symbols, obs, rng).copyInto(model)
	res := &Result{}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if cfg.Cancel != nil && canceled(cfg.Cancel) {
			return nil, nil, ErrCanceled
		}
		model.emStepInto(obs, sc, spare)
		res.Iterations = iter + 1
		delta := paramDelta(model, spare)
		model, spare = spare, model
		if delta < cfg.Threshold {
			res.Converged = true
			break
		}
	}
	// The log-likelihood under the last iteration's starting parameters,
	// from the scale factors its E-step left in sc; the posterior below
	// overwrites them.
	if res.Iterations > 0 {
		res.LogLik = sc.logLik(len(obs))
	}
	res.VirtualPMF = model.lossSymbolPosterior(obs, sc)
	return model, res, nil
}

// emStep performs one EM iteration with freshly allocated buffers and
// returns the updated model and the log-likelihood of obs under the
// *current* parameters. The EM loop in FitWithScratch uses emStepInto.
func (m *Model) emStep(obs []int) (*Model, float64) {
	next := newZeroModel(m.N, m.M)
	sc := NewScratch()
	m.emStepInto(obs, sc, next)
	return next, sc.logLik(len(obs))
}

// emStepInto performs one EM iteration, writing the re-estimated
// parameters into next. The E-step's scale factors stay in sc for
// Scratch.logLik.
func (m *Model) emStepInto(obs []int, sc *Scratch, next *Model) {
	T := len(obs)
	n, M := m.N, m.M
	gamma, xiNum := m.forwardBackward(obs, sc)

	next.N, next.M = n, M
	copy(next.Pi, gamma[0])

	// Per-state occupancy denominators, fused into one sweep over t: each
	// accumulator still sums its gamma column in ascending t, so the sums
	// are bit-identical to the per-state loops they replace. The B-step
	// denominator over all t is the t < T-1 sum plus the final step.
	denomA, denomB := sc.denomA, sc.denomB
	for i := 0; i < n; i++ {
		denomA[i] = 0
	}
	for t := 0; t < T-1; t++ {
		gt := gamma[t]
		for i := 0; i < n; i++ {
			denomA[i] += gt[i]
		}
	}
	gLast := gamma[T-1]
	for i := 0; i < n; i++ {
		denomB[i] = denomA[i] + gLast[i]
	}

	// Transition matrix.
	for i := 0; i < n; i++ {
		row := next.A[i]
		if d := denomA[i]; d > 0 {
			rowXi := xiNum[i]
			for j := 0; j < n; j++ {
				row[j] = rowXi[j] / d
			}
		} else {
			copy(row, m.A[i])
		}
		normalizeRow(row)
	}

	// Emission matrix and loss probabilities. For observed symbols the
	// symbol is known; for losses the symbol is distributed according to
	// the per-state posterior lossWeight.
	bNum := sc.bNum
	lossNum := sc.lossNum   // expected # of losses with symbol m
	symCount := sc.symCount // expected # of times symbol m occurred
	for i := range bNum {
		for k := range bNum[i] {
			bNum[i][k] = 0
		}
	}
	for k := 0; k < M; k++ {
		lossNum[k], symCount[k] = 0, 0
	}
	weights := sc.weights
	for i := 0; i < n; i++ {
		m.lossWeightInto(i, weights[i])
	}
	for t := 0; t < T; t++ {
		o := obs[t]
		gt := gamma[t]
		if o == Loss {
			for i := 0; i < n; i++ {
				g := gt[i]
				if g == 0 {
					continue
				}
				bi, wi := bNum[i], weights[i]
				for k := 0; k < M; k++ {
					w := g * wi[k]
					bi[k] += w
					lossNum[k] += w
					symCount[k] += w
				}
			}
		} else {
			k := o - 1
			symCount[k]++
			for i := 0; i < n; i++ {
				bNum[i][k] += gt[i]
			}
		}
	}
	for i := 0; i < n; i++ {
		row := next.B[i]
		if d := denomB[i]; d > 0 {
			bi := bNum[i]
			for k := 0; k < M; k++ {
				row[k] = bi[k] / d
			}
		} else {
			copy(row, m.B[i])
		}
		normalizeRow(row)
	}
	for k := 0; k < M; k++ {
		if symCount[k] > 0 {
			next.C[k] = clamp(lossNum[k]/symCount[k], 0, 1-probFloor)
		} else {
			next.C[k] = m.C[k]
		}
	}
}

// LossSymbolPosterior returns P(V = m | loss) under the model — eq. (5) —
// or nil when obs has no losses.
func (m *Model) LossSymbolPosterior(obs []int) stats.PMF {
	return m.lossSymbolPosterior(obs, NewScratch())
}

func (m *Model) lossSymbolPosterior(obs []int, sc *Scratch) stats.PMF {
	nLoss := 0
	for _, o := range obs {
		if o == Loss {
			nLoss++
		}
	}
	if nLoss == 0 {
		return nil
	}
	gamma, _ := m.forwardBackward(obs, sc)
	pmf := stats.NewPMF(m.M)
	weights := make([][]float64, m.N)
	for i := 0; i < m.N; i++ {
		weights[i] = m.lossWeight(i)
	}
	for t, o := range obs {
		if o != Loss {
			continue
		}
		for i := 0; i < m.N; i++ {
			g := gamma[t][i]
			for k := 0; k < m.M; k++ {
				pmf[k] += g * weights[i][k]
			}
		}
	}
	pmf.Normalize()
	return pmf
}

// LogLikelihood returns log P(obs | model).
func (m *Model) LogLikelihood(obs []int) float64 {
	sc := NewScratch()
	m.forwardBackward(obs, sc)
	return sc.logLik(len(obs))
}

func normalizeRow(row []float64) {
	var sum float64
	for _, v := range row {
		sum += v
	}
	if sum <= 0 {
		for i := range row {
			row[i] = 1 / float64(len(row))
		}
		return
	}
	for i := range row {
		row[i] /= sum
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// paramDelta returns the max absolute difference across all parameters.
func paramDelta(a, b *Model) float64 {
	d := maxAbsDiff(a.Pi, b.Pi, 0)
	for i := range a.A {
		d = maxAbsDiff(a.A[i], b.A[i], d)
	}
	for i := range a.B {
		d = maxAbsDiff(a.B[i], b.B[i], d)
	}
	return maxAbsDiff(a.C, b.C, d)
}

// maxAbsDiff folds max(|x-y|) over two parameter rows into d. A NaN
// difference wins and stays, so a fit whose parameters went NaN never
// passes the convergence test delta < Threshold.
func maxAbsDiff(x, y []float64, d float64) float64 {
	for i := range x {
		if diff := math.Abs(x[i] - y[i]); diff > d || math.IsNaN(diff) {
			d = diff
		}
	}
	return d
}
