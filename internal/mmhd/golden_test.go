package mmhd

import (
	"math"
	"testing"

	"dominantlink/internal/stats"
)

// This file pins the EM hot-path optimization (shared per-observation
// emission rows, cached per-step carving, a flat copy of the transition
// matrix, one backward/xi sweep, one M-step sweep over gamma, the
// log-likelihood summed once per fit, precomputed C-index table) to the
// exact floating-point behavior of the implementation it replaced: refFit
// below is a transcription of the pre-optimization Fit on naive per-cell
// emissions and separate passes. Fitted parameters and Result fields must
// match bit-for-bit.

// refEStep is the pre-optimization sparse scaled forward-backward pass with
// fresh allocations, per-cell emission() calls, and a separate
// log-likelihood summation.
func refEStep(m *Model, obs []int) (act [][]int, gamma [][]float64, xiNum [][]float64, loglik float64) {
	T := len(obs)
	S := m.States()
	all := make([]int, S)
	for i := range all {
		all[i] = i
	}
	act = make([][]int, T)
	emis := make([][]float64, T)
	alpha := make([][]float64, T)
	gamma = make([][]float64, T)
	for t := 0; t < T; t++ {
		act[t] = m.activeStates(obs[t], all)
		w := len(act[t])
		emis[t] = make([]float64, w)
		alpha[t] = make([]float64, w)
		gamma[t] = make([]float64, w)
		for k, s := range act[t] {
			emis[t][k] = m.emission(s, obs[t])
		}
	}
	scale := make([]float64, T)
	var c0 float64
	for k, s := range act[0] {
		alpha[0][k] = m.Pi[s] * emis[0][k]
		c0 += alpha[0][k]
	}
	if c0 <= 0 {
		c0 = probFloor
	}
	for k := range alpha[0] {
		alpha[0][k] /= c0
	}
	scale[0] = c0
	for t := 1; t < T; t++ {
		prevAct, prevAlpha := act[t-1], alpha[t-1]
		at := alpha[t]
		var ct float64
		for k, sp := range act[t] {
			var sum float64
			for kk, s := range prevAct {
				av := prevAlpha[kk]
				if av == 0 {
					continue
				}
				sum += av * m.A[s][sp]
			}
			at[k] = sum * emis[t][k]
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
	for t := 0; t < T; t++ {
		loglik += math.Log(scale[t])
	}
	xiNum = make([][]float64, S)
	for i := range xiNum {
		xiNum[i] = make([]float64, S)
	}
	beta := make([]float64, len(act[T-1]))
	for k := range beta {
		beta[k] = 1
	}
	copy(gamma[T-1], alpha[T-1])
	for t := T - 2; t >= 0; t-- {
		nextAct, nextBeta, nextEmis := act[t+1], beta, emis[t+1]
		bt := make([]float64, len(act[t]))
		for k, s := range act[t] {
			var sum float64
			for kk, sp := range nextAct {
				w := nextEmis[kk] * nextBeta[kk]
				if w == 0 {
					continue
				}
				sum += m.A[s][sp] * w
			}
			bt[k] = sum / scale[t+1]
		}
		gt := gamma[t]
		var gsum float64
		for k := range gt {
			gt[k] = alpha[t][k] * bt[k]
			gsum += gt[k]
		}
		if gsum > 0 {
			for k := range gt {
				gt[k] /= gsum
			}
		}
		for k, s := range act[t] {
			av := alpha[t][k]
			if av == 0 {
				continue
			}
			rowA := m.A[s]
			rowXi := xiNum[s]
			for kk, sp := range nextAct {
				w := nextEmis[kk] * nextBeta[kk]
				if w == 0 {
					continue
				}
				rowXi[sp] += av * rowA[sp] * w / scale[t+1]
			}
		}
		beta = bt
	}
	return act, gamma, xiNum, loglik
}

// refEmStepInto is the pre-optimization M-step with the per-cell C-index
// computation in its statistics loop.
func refEmStepInto(m *Model, obs []int, next *Model) float64 {
	T := len(obs)
	S := m.States()
	act, gamma, xiNum, loglik := refEStep(m, obs)

	next.N, next.M = m.N, m.M
	for s := range next.Pi {
		next.Pi[s] = 0
	}
	for k, s := range act[0] {
		next.Pi[s] = gamma[0][k]
	}

	gammaSum := make([]float64, S)
	for t := 0; t < T-1; t++ {
		for k, s := range act[t] {
			gammaSum[s] += gamma[t][k]
		}
	}
	for s := 0; s < S; s++ {
		row := next.A[s]
		if gammaSum[s] > 0 {
			for sp := 0; sp < S; sp++ {
				row[sp] = xiNum[s][sp] / gammaSum[s]
			}
			normalizeRow(row)
		} else {
			copy(row, m.A[s])
		}
	}

	next.PerStateLoss = m.PerStateLoss
	cLen := m.M
	if m.PerStateLoss {
		cLen = S
	}
	lossNum := make([]float64, cLen)
	occCount := make([]float64, cLen)
	for t := 0; t < T; t++ {
		isLoss := obs[t] == Loss
		for k, s := range act[t] {
			idx := s % m.M
			if m.PerStateLoss {
				idx = s
			}
			g := gamma[t][k]
			occCount[idx] += g
			if isLoss {
				lossNum[idx] += g
			}
		}
	}
	for i := 0; i < cLen; i++ {
		if occCount[i] > 0 {
			next.C[i] = clamp(lossNum[i]/occCount[i], 0, 1-probFloor)
		} else {
			next.C[i] = m.C[i]
		}
	}
	return loglik
}

func refLossSymbolPosterior(m *Model, obs []int) stats.PMF {
	nLoss := 0
	for _, o := range obs {
		if o == Loss {
			nLoss++
		}
	}
	if nLoss == 0 {
		return nil
	}
	act, gamma, _, _ := refEStep(m, obs)
	pmf := stats.NewPMF(m.M)
	for t, o := range obs {
		if o != Loss {
			continue
		}
		for k, s := range act[t] {
			pmf[m.Symbol(s)-1] += gamma[t][k]
		}
	}
	pmf.Normalize()
	return pmf
}

// refFit is the pre-optimization EM loop.
func refFit(obs []int, cfg Config) (*Model, *Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	if err := validateObs(obs, cfg.Symbols); err != nil {
		return nil, nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	model := newRandomModel(cfg.HiddenStates, cfg.Symbols, obs, rng, cfg.PerStateLoss)
	res := &Result{}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		next := newZeroModel(cfg.HiddenStates, cfg.Symbols, cfg.PerStateLoss)
		loglik := refEmStepInto(model, obs, next)
		res.Iterations = iter + 1
		res.LogLik = loglik
		delta := paramDelta(model, next)
		model = next
		if delta < cfg.Threshold {
			res.Converged = true
			break
		}
	}
	res.VirtualPMF = refLossSymbolPosterior(model, obs)
	return model, res, nil
}

func requireIdenticalVec(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s[%d]: got %v (bits %x), want %v (bits %x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func requireIdenticalMat(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rows %d != %d", name, len(got), len(want))
	}
	for i := range want {
		requireIdenticalVec(t, name, got[i], want[i])
	}
}

// TestGoldenFitMatchesReference runs the optimized Fit and the transcribed
// pre-optimization reference on fixed-seed traces and requires bit-identical
// fitted parameters and Result fields, across the per-symbol and per-state
// loss variants and both loop exits: the MaxIter cap and the converged
// break. A shared Scratch is reused across every case to exercise the
// carving cache on both the repeat-obs and changed-obs paths.
func TestGoldenFitMatchesReference(t *testing.T) {
	cases := []struct {
		name      string
		T         int
		loss      float64
		seed      int64
		cfg       Config
		converges bool // the reference must stop on the threshold, not the cap
	}{
		{"m5", 400, 0.05, 1, Config{HiddenStates: 2, Symbols: 5, Seed: 7, MaxIter: 40}, false},
		{"m8", 600, 0.03, 2, Config{HiddenStates: 2, Symbols: 8, Seed: 11, MaxIter: 40}, false},
		{"per-state", 400, 0.05, 3, Config{HiddenStates: 2, Symbols: 5, Seed: 13, MaxIter: 40, PerStateLoss: true}, false},
		{"three-hidden", 300, 0.04, 4, Config{HiddenStates: 3, Symbols: 4, Seed: 17, MaxIter: 30}, false},
		{"one-iteration", 400, 0.05, 1, Config{HiddenStates: 2, Symbols: 5, Seed: 7, MaxIter: 1}, false},
		// The monitoring daemon's window shape at the default threshold and
		// cap.
		{"daemon-shape", 1500, 0.04, 5, Config{HiddenStates: 2, Symbols: 5, Seed: 3, PerStateLoss: true}, true},
	}
	sc := NewScratch()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obs := benchObs(tc.T, tc.cfg.Symbols, tc.loss, tc.seed)
			gotM, gotR, err := FitWithScratch(obs, tc.cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			wantM, wantR, err := refFit(obs, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.converges && !wantR.Converged {
				t.Fatalf("reference ran to its cap (%d iterations); the case no longer pins the converged exit", wantR.Iterations)
			}
			requireIdenticalVec(t, "Pi", gotM.Pi, wantM.Pi)
			requireIdenticalMat(t, "A", gotM.A, wantM.A)
			requireIdenticalVec(t, "C", gotM.C, wantM.C)
			if gotR.Iterations != wantR.Iterations {
				t.Errorf("Iterations: got %d, want %d", gotR.Iterations, wantR.Iterations)
			}
			if gotR.LogLik != wantR.LogLik {
				t.Errorf("LogLik: got %v, want %v", gotR.LogLik, wantR.LogLik)
			}
			if gotR.Converged != wantR.Converged {
				t.Errorf("Converged: got %v, want %v", gotR.Converged, wantR.Converged)
			}
			requireIdenticalVec(t, "VirtualPMF", gotR.VirtualPMF, wantR.VirtualPMF)
		})
	}
}

// TestGoldenScratchReuseStable re-fits the same trace through one Scratch
// and requires the second fit (which hits the cached per-step carving and
// emission-row pointers) to reproduce the first bit-for-bit.
func TestGoldenScratchReuseStable(t *testing.T) {
	obs := benchObs(500, 5, 0.05, 9)
	cfg := Config{HiddenStates: 2, Symbols: 5, Seed: 23, MaxIter: 40}
	sc := NewScratch()
	m1, r1, err := FitWithScratch(obs, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	snap := newZeroModel(m1.N, m1.M, m1.PerStateLoss)
	m1.copyInto(snap)
	ll1, it1 := r1.LogLik, r1.Iterations
	m2, r2, err := FitWithScratch(obs, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalVec(t, "Pi", m2.Pi, snap.Pi)
	requireIdenticalMat(t, "A", m2.A, snap.A)
	requireIdenticalVec(t, "C", m2.C, snap.C)
	if r2.LogLik != ll1 || r2.Iterations != it1 {
		t.Errorf("re-fit drifted: loglik %v vs %v, iters %d vs %d", r2.LogLik, ll1, r2.Iterations, it1)
	}
}

// TestGoldenLogLikelihoodMatchesReference pins LogLikelihood, which sums the
// log scale factors once after the pass, to the reference E-step's sum.
func TestGoldenLogLikelihoodMatchesReference(t *testing.T) {
	obs := benchObs(600, 5, 0.05, 8)
	for _, perState := range []bool{false, true} {
		m := newRandomModel(2, 5, obs, stats.NewRNG(29), perState)
		_, _, _, want := refEStep(m, obs)
		if got := m.LogLikelihood(obs); got != want {
			t.Errorf("perState=%v: LogLikelihood %v (bits %x), reference %v (bits %x)",
				perState, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
