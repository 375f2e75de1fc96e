// Package mmhd implements the Markov model with a hidden dimension (MMHD)
// of Wei, Wang and Towsley [38], extended — as in the paper — with a
// loss-as-missing-value observation channel, and the EM algorithm of the
// paper's Appendix B.
//
// An MMHD state is a pair (h, v) of a hidden state h in 1..N and a delay
// symbol v in 1..M; the chain moves on the full N·M state space and emits
// the symbol component of its state, which is erased (observed as a loss)
// with probability C[v]. Unlike an HMM, consecutive delay symbols are
// directly coupled through the transition matrix, which is why MMHD
// captures delay correlation more accurately (§V-B, Fig. 8).
//
// The implementation exploits the structure of the model: an observed
// symbol pins the state to the N states sharing that symbol, so the
// forward-backward recursions only touch N active states at observed
// steps and all N·M states around losses. With loss rates of a few
// percent this makes even M=100 fits cheap.
package mmhd

import (
	"errors"
	"math"

	"dominantlink/internal/stats"
)

// Loss marks a lost probe in the observation sequence; symbols are 1..M.
const Loss = 0

// ErrCanceled reports a fit aborted through Config.Cancel before it
// converged or reached MaxIter.
var ErrCanceled = errors.New("mmhd: fit canceled")

// canceled reports whether the cancel channel has been closed.
func canceled(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// Model holds MMHD parameters. States are indexed s = h*M + (v-1) for
// hidden state h in 0..N-1 and symbol v in 1..M.
//
// The loss channel comes in two variants. The paper's formulation ties the
// loss probability to the delay symbol alone (C has length M). With
// PerStateLoss, the loss probability is per state (C has length N*M):
// c_{h,v} = P(loss | state (h,v)). The per-state variant is strictly more
// expressive — it lets the hidden dimension capture congestion regimes in
// which the same delay symbol has very different loss rates — and avoids a
// failure mode of the per-symbol variant in which EM "hijacks" a rarely
// observed symbol as a dedicated loss explainer, corrupting the
// virtual-delay posterior (see EXPERIMENTS.md).
type Model struct {
	N int // hidden states
	M int // delay symbols

	PerStateLoss bool

	Pi []float64   // initial state distribution, len N*M
	A  [][]float64 // transition matrix, (N*M) x (N*M)
	C  []float64   // loss probabilities: len M, or len N*M with PerStateLoss
}

// lossProb returns P(loss | state s).
func (m *Model) lossProb(s int) float64 {
	if m.PerStateLoss {
		return m.C[s]
	}
	return m.C[s%m.M]
}

// States returns the state-space size N*M.
func (m *Model) States() int { return m.N * m.M }

// Symbol returns the 1-based delay symbol of state s.
func (m *Model) Symbol(s int) int { return s%m.M + 1 }

// Config controls the EM fit.
type Config struct {
	HiddenStates int     // N (required, >= 1)
	Symbols      int     // M (required, >= 1)
	Threshold    float64 // convergence threshold on max parameter change (default 1e-3)
	MaxIter      int     // iteration cap (default 500)
	Seed         int64   // RNG seed for the random initialization
	PerStateLoss bool    // per-state loss probabilities (extension; see Model)

	// Cancel, when non-nil, aborts the fit between EM iterations once the
	// channel is closed: Fit returns ErrCanceled instead of a result. It is
	// how context deadlines reach the inner loop — a fit on a pathological
	// trace stops within one iteration of the deadline instead of running
	// to MaxIter. A nil Cancel never aborts and changes nothing.
	Cancel <-chan struct{}
}

func (c *Config) defaults() error {
	if c.HiddenStates < 1 {
		return errors.New("mmhd: HiddenStates must be >= 1")
	}
	if c.Symbols < 1 {
		return errors.New("mmhd: Symbols must be >= 1")
	}
	if c.Threshold == 0 {
		c.Threshold = 1e-3
	}
	if c.MaxIter == 0 {
		c.MaxIter = 500
	}
	return nil
}

// Result reports the fit outcome and the inferred virtual-delay posterior.
type Result struct {
	Iterations int
	LogLik     float64
	Converged  bool
	// VirtualPMF is P(V = m | loss) of eq. (5); nil when obs has no losses.
	VirtualPMF stats.PMF
}

const probFloor = 1e-12

// Scratch holds every work buffer of an EM fit — the per-step active-state
// tables, the forward-backward arrays, the M-step accumulators, and a
// double-buffered pair of parameter sets — so the hot loop allocates
// nothing per iteration. A Scratch grows to the largest fit it has seen
// and may be reused across fits; use one Scratch per worker goroutine (it
// is not safe for concurrent use). The Model returned by FitWithScratch
// aliases the scratch and is invalidated by the next fit through it.
type Scratch struct {
	n, m     int
	perState bool

	all      []int   // 0..S-1
	actBySym [][]int // symbol (1..M) -> its N state indices; index 0 = all

	act                  [][]int     // per-step active sets (aliases actBySym)
	alpha, gamma         [][]float64 // per-step, carved from the flat backings
	alphaBack, gammaBack []float64
	scale                []float64
	beta, betaNext       []float64 // rolling backward pair, cap S
	w                    []float64 // per-step emission*beta of the next step, cap S
	xiNum                [][]float64
	es                   eStepOut

	// a is the current transition matrix copied row-major with stride S
	// once per E-step, so the recursions index one flat array instead of
	// loading a row header per cell.
	a []float64

	// Emission rows, shared per observation: an observed symbol v has the
	// same emission row (1 - lossProb over its N active states) at every
	// step it appears, and every loss step shares the dense lossProb row.
	// The M+1 distinct rows are recomputed from the current parameters
	// once per E-step; emis[t] just points at the row for obs[t].
	emisBack  []float64   // backing: loss row (S) + symbol rows (N each)
	emisBySym [][]float64 // observation (0..M) -> its shared emission row
	emis      [][]float64 // per-step row pointers (aliases emisBySym)

	// lastObs is the observation sequence the per-step tables (act, alpha,
	// gamma, emis carving) were built for. The EM loop re-enters prepare
	// with the same obs every iteration — and every restart of the same
	// trace reuses it — so the O(T) re-carving collapses to an O(T)
	// equality check.
	lastObs []int

	gammaSum          []float64 // S
	lossNum, occCount []float64 // cLen
	cIdx              []int     // state -> C index (s, or s%M per-symbol)

	models [2]*Model
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// prepare sizes the scratch for one E-step over obs. The per-step carving
// is redone on every call (it depends on where the losses sit in obs) but
// reuses the backing arrays, so a prepared scratch performs no allocations
// once it has grown to the workload's dimensions.
func (sc *Scratch) prepare(obs []int, n, mSym int, perState bool) {
	S := n * mSym
	if sc.n != n || sc.m != mSym {
		sc.n, sc.m = n, mSym
		sc.all = make([]int, S)
		for i := range sc.all {
			sc.all[i] = i
		}
		sc.actBySym = make([][]int, mSym+1)
		sc.actBySym[Loss] = sc.all
		for v := 1; v <= mSym; v++ {
			act := make([]int, n)
			for h := 0; h < n; h++ {
				act[h] = h*mSym + (v - 1)
			}
			sc.actBySym[v] = act
		}
		// The shared emission rows: the dense loss row plus one N-wide row
		// per symbol, carved from one backing.
		sc.emisBack = growFloats(sc.emisBack, 2*S)
		sc.emisBySym = make([][]float64, mSym+1)
		sc.emisBySym[Loss] = sc.emisBack[:S]
		for v := 1; v <= mSym; v++ {
			sc.emisBySym[v] = sc.emisBack[S+(v-1)*n : S+v*n]
		}
		sc.xiNum = nil // force regrow below
		sc.models[0] = nil
		sc.lastObs = sc.lastObs[:0] // per-step tables must be recarved
	}
	if sc.models[0] == nil || sc.perState != perState {
		sc.perState = perState
		sc.models[0] = newZeroModel(n, mSym, perState)
		sc.models[1] = newZeroModel(n, mSym, perState)
		if cap(sc.cIdx) < S {
			sc.cIdx = make([]int, S)
		}
		sc.cIdx = sc.cIdx[:S]
		for s := 0; s < S; s++ {
			if perState {
				sc.cIdx[s] = s
			} else {
				sc.cIdx[s] = s % mSym
			}
		}
	}
	T := len(obs)
	if !intsEqual(sc.lastObs, obs) {
		// Total active-state cells across all steps: N per observed
		// symbol, S per loss.
		total := 0
		for _, o := range obs {
			if o == Loss {
				total += S
			} else {
				total += n
			}
		}
		sc.alphaBack = growFloats(sc.alphaBack, total)
		sc.gammaBack = growFloats(sc.gammaBack, total)
		if cap(sc.act) < T {
			sc.act = make([][]int, T)
			sc.alpha = make([][]float64, T)
			sc.gamma = make([][]float64, T)
			sc.emis = make([][]float64, T)
		}
		sc.act = sc.act[:T]
		sc.alpha, sc.gamma, sc.emis = sc.alpha[:T], sc.gamma[:T], sc.emis[:T]
		off := 0
		for t, o := range obs {
			sc.act[t] = sc.actBySym[o]
			w := len(sc.act[t])
			sc.alpha[t] = sc.alphaBack[off : off+w]
			sc.gamma[t] = sc.gammaBack[off : off+w]
			sc.emis[t] = sc.emisBySym[o]
			off += w
		}
		sc.lastObs = append(sc.lastObs[:0], obs...)
	}
	sc.scale = growFloats(sc.scale, T)
	sc.beta = growFloats(sc.beta, S)
	sc.betaNext = growFloats(sc.betaNext, S)
	sc.w = growFloats(sc.w, S)
	sc.a = growFloats(sc.a, S*S)
	sc.xiNum = growMatrix(sc.xiNum, S, S)
	sc.gammaSum = growFloats(sc.gammaSum, S)
	cLen := mSym
	if perState {
		cLen = S
	}
	sc.lossNum = growFloats(sc.lossNum, cLen)
	sc.occCount = growFloats(sc.occCount, cLen)
}

// fillEmissions recomputes the shared emission rows from m's current
// parameters: the loss row is lossProb per state, a symbol row is
// 1 - lossProb over the symbol's N active states — exactly the values the
// per-cell emission() calls produced.
func (sc *Scratch) fillEmissions(m *Model) {
	S := m.N * m.M
	lossRow := sc.emisBySym[Loss]
	for s := 0; s < S; s++ {
		lossRow[s] = m.lossProb(s)
	}
	for v := 1; v <= m.M; v++ {
		row := sc.emisBySym[v]
		for h := 0; h < m.N; h++ {
			row[h] = 1 - m.lossProb(h*m.M+(v-1))
		}
	}
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

func newZeroModel(n, mSym int, perState bool) *Model {
	s := n * mSym
	mod := &Model{N: n, M: mSym, PerStateLoss: perState}
	mod.Pi = make([]float64, s)
	mod.A = make([][]float64, s)
	for i := range mod.A {
		mod.A[i] = make([]float64, s)
	}
	cLen := mSym
	if perState {
		cLen = s
	}
	mod.C = make([]float64, cLen)
	return mod
}

// copyInto copies m's parameters into dst (same dimensions and variant).
func (m *Model) copyInto(dst *Model) {
	dst.N, dst.M, dst.PerStateLoss = m.N, m.M, m.PerStateLoss
	copy(dst.Pi, m.Pi)
	for i := range m.A {
		copy(dst.A[i], m.A[i])
	}
	copy(dst.C, m.C)
}

// NewRandomModel builds the paper's initialization: uniform Pi, random
// stochastic transition rows, and C set uniformly (here to the empirical
// loss fraction of obs, floored at 1%).
func NewRandomModel(n, mSym int, obs []int, rng *stats.RNG) *Model {
	return newRandomModel(n, mSym, obs, rng, false)
}

func newRandomModel(n, mSym int, obs []int, rng *stats.RNG, perState bool) *Model {
	s := n * mSym
	mod := &Model{N: n, M: mSym, PerStateLoss: perState}
	mod.Pi = make([]float64, s)
	for i := range mod.Pi {
		mod.Pi[i] = 1 / float64(s)
	}
	mod.A = make([][]float64, s)
	for i := range mod.A {
		row := make([]float64, s)
		var sum float64
		for j := range row {
			row[j] = 0.5 + rng.Float64()
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
		mod.A[i] = row
	}
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
	cLen := mSym
	if perState {
		cLen = s
	}
	mod.C = make([]float64, cLen)
	for i := range mod.C {
		c := c0
		if perState {
			// Break the symmetry between hidden layers sharing a symbol:
			// seed one layer as a low-loss regime and the last as a
			// high-loss regime (scaled up to the number of layers), plus
			// per-state noise. EM sharpens or merges the regimes as the
			// data dictates; without this structure it frequently lands in
			// the inferior single-regime optimum.
			h := i / mSym
			factor := 0.2 + 2.6*float64(h)/math.Max(float64(n-1), 1)
			if n == 1 {
				factor = 1
			}
			c = clamp(c0*factor*(0.7+0.6*rng.Float64()), probFloor, 0.9)
		}
		mod.C[i] = c
	}
	return mod
}

// activeStates returns the state indices compatible with observation o:
// the N states carrying symbol o when o is observed, or all states when o
// is a loss. The slice for observed symbols is freshly allocated per call;
// callers cache them per time step.
func (m *Model) activeStates(o int, all []int) []int {
	if o == Loss {
		return all
	}
	act := make([]int, m.N)
	for h := 0; h < m.N; h++ {
		act[h] = h*m.M + (o - 1)
	}
	return act
}

// emission returns P(observe o | state s).
func (m *Model) emission(s, o int) float64 {
	if o == Loss {
		return m.lossProb(s)
	}
	if m.Symbol(s) != o {
		return 0
	}
	return 1 - m.lossProb(s)
}

// eStepOut is the result of a scaled sparse forward-backward pass: the
// per-step active sets, the posterior state marginals gamma (parallel to
// the active sets) and the dense transition-count accumulator. The scale
// factors stay in the scratch; Scratch.logLik turns them into the
// log-likelihood.
type eStepOut struct {
	act   [][]int
	gamma [][]float64
	xiNum [][]float64
}

// eStep allocates a private scratch; the EM loop uses eStepScratch.
func (m *Model) eStep(obs []int) *eStepOut {
	return m.eStepScratch(obs, NewScratch())
}

// eStepScratch runs the pass on sc's buffers; the returned eStepOut
// aliases sc and is invalidated by sc's next use. The emission values come
// from the shared per-observation rows and the transition probabilities
// from a flat row-major copy of A, both refreshed once per call. The
// backward recursion and the xi accumulation share one sweep per step.
// Every floating-point operation runs in the order of the formulation it
// replaced, so fits are bit-identical (pinned by the golden test).
func (m *Model) eStepScratch(obs []int, sc *Scratch) *eStepOut {
	T := len(obs)
	S := m.N * m.M
	sc.prepare(obs, m.N, m.M, m.PerStateLoss)
	act := sc.act
	emis := sc.emis // per-step shared emission rows
	sc.fillEmissions(m)
	A := sc.a
	for s, row := range m.A {
		copy(A[s*S:(s+1)*S], row)
	}

	alpha := sc.alpha
	scale := sc.scale
	// Forward.
	a0, e0 := alpha[0], emis[0]
	var c0 float64
	for k, s := range act[0] {
		a0[k] = m.Pi[s] * e0[k]
		c0 += a0[k]
	}
	if c0 <= 0 {
		c0 = probFloor
	}
	for k := range a0 {
		a0[k] /= c0
	}
	scale[0] = c0
	for t := 1; t < T; t++ {
		prevAct, prevAlpha := act[t-1], alpha[t-1]
		at, et := alpha[t], emis[t]
		var ct float64
		for k, sp := range act[t] {
			var sum float64
			for kk, s := range prevAct {
				av := prevAlpha[kk]
				if av == 0 {
					continue
				}
				sum += av * A[s*S+sp]
			}
			at[k] = sum * et[k]
			ct += at[k]
		}
		if ct <= 0 {
			ct = probFloor
		}
		for k := range at {
			at[k] /= ct
		}
		scale[t] = ct
	}

	// Backward, accumulating gamma and the xi numerator.
	gamma := sc.gamma
	xiNum := sc.xiNum
	for i := range xiNum {
		row := xiNum[i]
		for j := range row {
			row[j] = 0
		}
	}
	beta := sc.beta[:len(act[T-1])]
	for k := range beta {
		beta[k] = 1
	}
	copy(gamma[T-1], alpha[T-1])
	spareBeta := sc.betaNext
	for t := T - 2; t >= 0; t-- {
		nextAct, nextEmis := act[t+1], emis[t+1]
		actT, at := act[t], alpha[t]
		ct1 := scale[t+1]
		w := sc.w[:len(nextAct)]
		for kk := range w {
			w[kk] = nextEmis[kk] * beta[kk]
		}
		// One sweep per source state: beta sums rowA[sp]*w over the next
		// step's active states, and each xi cell gets its single add of
		// this step. A zero alpha skips only the xi adds.
		bt := spareBeta[:len(actT)]
		for k, s := range actT {
			rowA := A[s*S : (s+1)*S]
			rowXi := xiNum[s]
			av := at[k]
			var sum float64
			for kk, sp := range nextAct {
				wk := w[kk]
				if wk == 0 {
					continue
				}
				sum += rowA[sp] * wk
				if av != 0 {
					rowXi[sp] += av * rowA[sp] * wk / ct1
				}
			}
			bt[k] = sum / ct1
		}
		gt := gamma[t]
		var gsum float64
		for k := range gt {
			gt[k] = at[k] * bt[k]
			gsum += gt[k]
		}
		if gsum > 0 {
			for k := range gt {
				gt[k] /= gsum
			}
		}
		spareBeta = beta[:cap(beta)]
		beta = bt
	}
	sc.es = eStepOut{act: act, gamma: gamma, xiNum: xiNum}
	return &sc.es
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

// emStep performs one EM iteration with freshly allocated buffers,
// returning the re-estimated model and the log-likelihood under the
// current parameters. The EM loop in FitWithScratch uses emStepInto.
func (m *Model) emStep(obs []int) (*Model, float64) {
	next := newZeroModel(m.N, m.M, m.PerStateLoss)
	sc := NewScratch()
	m.emStepInto(obs, sc, next)
	return next, sc.logLik(len(obs))
}

// emStepInto performs one EM iteration on sc's buffers, writing the
// re-estimated parameters into next. The E-step's scale factors stay in
// sc for Scratch.logLik.
func (m *Model) emStepInto(obs []int, sc *Scratch, next *Model) {
	T := len(obs)
	S := m.States()
	es := m.eStepScratch(obs, sc)

	next.N, next.M = m.N, m.M
	for s := range next.Pi {
		next.Pi[s] = 0
	}
	for k, s := range es.act[0] {
		next.Pi[s] = es.gamma[0][k]
	}

	// One sweep over gamma feeds both M-step sums; each accumulator still
	// adds its terms in ascending t. gammaSum is the time spent in each
	// source state over t < T-1; lossNum and occCount are the expected
	// losses and occurrences over all t, pooled per symbol, or per state
	// with PerStateLoss.
	cLen := m.M
	if m.PerStateLoss {
		cLen = S
	}
	gammaSum := sc.gammaSum
	for s := 0; s < S; s++ {
		gammaSum[s] = 0
	}
	lossNum := sc.lossNum
	occCount := sc.occCount
	for i := 0; i < cLen; i++ {
		lossNum[i], occCount[i] = 0, 0
	}
	cIdx := sc.cIdx // state -> C index, precomputed in prepare
	for t := 0; t < T; t++ {
		isLoss := obs[t] == Loss
		inA := t < T-1
		gt := es.gamma[t]
		for k, s := range es.act[t] {
			g := gt[k]
			if inA {
				gammaSum[s] += g
			}
			idx := cIdx[s]
			occCount[idx] += g
			if isLoss {
				lossNum[idx] += g
			}
		}
	}

	// Transition matrix: xiNum / time spent in each source state.
	for s := 0; s < S; s++ {
		row := next.A[s]
		if gs := gammaSum[s]; gs > 0 {
			xiRow := es.xiNum[s]
			for sp := 0; sp < S; sp++ {
				row[sp] = xiRow[sp] / gs
			}
			normalizeRow(row)
		} else {
			copy(row, m.A[s]) // state never visited: keep prior row
		}
	}

	// Loss probabilities: expected losses over expected occurrences.
	next.PerStateLoss = m.PerStateLoss
	for i := 0; i < cLen; i++ {
		if occCount[i] > 0 {
			next.C[i] = clamp(lossNum[i]/occCount[i], 0, 1-probFloor)
		} else {
			next.C[i] = m.C[i]
		}
	}
}

// Fit runs EM from the paper's random initialization until convergence.
func Fit(obs []int, cfg Config) (*Model, *Result, error) {
	return FitWithScratch(obs, cfg, NewScratch())
}

// FitWithScratch is Fit with caller-owned work buffers, for callers that
// run many fits (EM restarts, batch identification): after the scratch has
// grown to the workload's dimensions the hot loop performs no allocations.
// The returned Model aliases sc and is invalidated by the next fit through
// the same Scratch; the Result (and its VirtualPMF) is independent of sc.
// FitWithScratch is deterministic in (obs, cfg): reusing a scratch never
// changes the fit.
func FitWithScratch(obs []int, cfg Config, sc *Scratch) (*Model, *Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	if err := validateObs(obs, cfg.Symbols); err != nil {
		return nil, nil, err
	}
	sc.prepare(obs, cfg.HiddenStates, cfg.Symbols, cfg.PerStateLoss)
	rng := stats.NewRNG(cfg.Seed)
	model, spare := sc.models[0], sc.models[1]
	newRandomModel(cfg.HiddenStates, cfg.Symbols, obs, rng, cfg.PerStateLoss).copyInto(model)
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

// LossSymbolPosterior returns P(V = m | loss), eq. (5): the total posterior
// mass on symbol m at loss times, normalized by the number of losses. It
// returns nil when obs contains no losses.
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
	es := m.eStepScratch(obs, sc)
	pmf := stats.NewPMF(m.M)
	for t, o := range obs {
		if o != Loss {
			continue
		}
		for k, s := range es.act[t] {
			pmf[m.Symbol(s)-1] += es.gamma[t][k]
		}
	}
	pmf.Normalize()
	return pmf
}

// LogLikelihood returns log P(obs | model).
func (m *Model) LogLikelihood(obs []int) float64 {
	sc := NewScratch()
	m.eStepScratch(obs, sc)
	return sc.logLik(len(obs))
}

func validateObs(obs []int, mSym int) error {
	if len(obs) == 0 {
		return errors.New("mmhd: empty observation sequence")
	}
	for _, o := range obs {
		if o != Loss && (o < 1 || o > mSym) {
			return errors.New("mmhd: observation out of range")
		}
	}
	return nil
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

// paramDelta returns the max absolute parameter difference between models.
func paramDelta(a, b *Model) float64 {
	d := maxAbsDiff(a.Pi, b.Pi, 0)
	for i := range a.A {
		d = maxAbsDiff(a.A[i], b.A[i], d)
	}
	return maxAbsDiff(a.C, b.C, d)
}

// maxAbsDiff returns max(d, max_i |x[i]-y[i]|). A NaN difference wins and
// stays, so a fit whose parameters went NaN never passes the convergence
// test delta < Threshold.
func maxAbsDiff(x, y []float64, d float64) float64 {
	for i, v := range x {
		if diff := math.Abs(v - y[i]); diff > d || math.IsNaN(diff) {
			d = diff
		}
	}
	return d
}
