package hmm

import (
	"math"
	"testing"

	"dominantlink/internal/stats"
)

// This file pins the EM hot-path optimization (shared emission rows, the
// log-likelihood summed once per fit, fused M-step denominators) to the exact
// floating-point behavior of the implementation it replaced: refFit below is
// a line-for-line transcription of the pre-optimization Fit, kept on naive
// per-cell emissions and separate passes. Every parameter of the fitted
// model and every field of the Result must match bit-for-bit (==, not
// within-epsilon) — any reordering of float operations in the optimized
// path shows up here as a hard failure.

// refEmission is the pre-optimization per-cell emission probability.
func refEmission(m *Model, i, obs int) float64 {
	if obs == Loss {
		var s float64
		for k := 0; k < m.M; k++ {
			s += m.B[i][k] * m.C[k]
		}
		return s
	}
	return m.B[i][obs-1] * (1 - m.C[obs-1])
}

// refForwardBackward is the pre-optimization scaled E-step: per-cell
// emission fills, a forward pass, a separate log-likelihood summation over
// the scale factors, then the backward/gamma/xi pass.
func refForwardBackward(m *Model, obs []int) (gamma, xiNum [][]float64, loglik float64) {
	T := len(obs)
	n := m.N
	e := make([][]float64, T)
	alpha := make([][]float64, T)
	gamma = make([][]float64, T)
	for t := 0; t < T; t++ {
		e[t] = make([]float64, n)
		alpha[t] = make([]float64, n)
		gamma[t] = make([]float64, n)
		for i := 0; i < n; i++ {
			e[t][i] = refEmission(m, i, obs[t])
		}
	}
	scale := make([]float64, T)
	var c0 float64
	for i := 0; i < n; i++ {
		alpha[0][i] = m.Pi[i] * e[0][i]
		c0 += alpha[0][i]
	}
	if c0 <= 0 {
		c0 = probFloor
	}
	for i := 0; i < n; i++ {
		alpha[0][i] /= c0
	}
	scale[0] = c0
	for t := 1; t < T; t++ {
		var ct float64
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += alpha[t-1][i] * m.A[i][j]
			}
			alpha[t][j] = s * e[t][j]
			ct += alpha[t][j]
		}
		if ct <= 0 {
			ct = probFloor
		}
		for j := 0; j < n; j++ {
			alpha[t][j] /= ct
		}
		scale[t] = ct
	}
	for t := 0; t < T; t++ {
		loglik += math.Log(scale[t])
	}
	beta := make([]float64, n)
	for i := range beta {
		beta[i] = 1
	}
	copy(gamma[T-1], alpha[T-1])
	xiNum = make([][]float64, n)
	for i := range xiNum {
		xiNum[i] = make([]float64, n)
	}
	prevBeta := make([]float64, n)
	for t := T - 2; t >= 0; t-- {
		copy(prevBeta, beta)
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += m.A[i][j] * e[t+1][j] * prevBeta[j]
			}
			beta[i] = s / scale[t+1]
		}
		var gsum float64
		for i := 0; i < n; i++ {
			gamma[t][i] = alpha[t][i] * beta[i]
			gsum += gamma[t][i]
		}
		if gsum > 0 {
			for i := 0; i < n; i++ {
				gamma[t][i] /= gsum
			}
		}
		for i := 0; i < n; i++ {
			if alpha[t][i] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				xi := alpha[t][i] * m.A[i][j] * e[t+1][j] * prevBeta[j] / scale[t+1]
				xiNum[i][j] += xi
			}
		}
	}
	return gamma, xiNum, loglik
}

// refEmStepInto is the pre-optimization M-step with its per-state
// denominator loops (one gamma sweep per hidden state, re-walked for the
// transition and emission updates separately).
func refEmStepInto(m *Model, obs []int, next *Model) float64 {
	T := len(obs)
	n, M := m.N, m.M
	gamma, xiNum, loglik := refForwardBackward(m, obs)

	next.N, next.M = n, M
	copy(next.Pi, gamma[0])

	for i := 0; i < n; i++ {
		var denom float64
		for t := 0; t < T-1; t++ {
			denom += gamma[t][i]
		}
		row := next.A[i]
		if denom > 0 {
			for j := 0; j < n; j++ {
				row[j] = xiNum[i][j] / denom
			}
		} else {
			copy(row, m.A[i])
		}
		normalizeRow(row)
	}

	bNum := make([][]float64, n)
	for i := range bNum {
		bNum[i] = make([]float64, M)
	}
	lossNum := make([]float64, M)
	symCount := make([]float64, M)
	weights := make([][]float64, n)
	for i := 0; i < n; i++ {
		weights[i] = m.lossWeight(i)
	}
	for t := 0; t < T; t++ {
		o := obs[t]
		if o == Loss {
			for i := 0; i < n; i++ {
				g := gamma[t][i]
				if g == 0 {
					continue
				}
				for k := 0; k < M; k++ {
					w := g * weights[i][k]
					bNum[i][k] += w
					lossNum[k] += w
					symCount[k] += w
				}
			}
		} else {
			k := o - 1
			symCount[k]++
			for i := 0; i < n; i++ {
				bNum[i][k] += gamma[t][i]
			}
		}
	}
	for i := 0; i < n; i++ {
		row := next.B[i]
		var denom float64
		for t := 0; t < T; t++ {
			denom += gamma[t][i]
		}
		if denom > 0 {
			for k := 0; k < M; k++ {
				row[k] = bNum[i][k] / denom
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
	gamma, _, _ := refForwardBackward(m, obs)
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

// refFit is the pre-optimization EM loop.
func refFit(obs []int, cfg Config) (*Model, *Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, nil, err
	}
	if err := validateObs(obs, cfg.Symbols); err != nil {
		return nil, nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	model := NewRandomModel(cfg.HiddenStates, cfg.Symbols, obs, rng)
	res := &Result{}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		next := newZeroModel(cfg.HiddenStates, cfg.Symbols)
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
// fitted parameters and Result fields. A shared Scratch is reused across
// every case so the emission-row and carving caches are exercised on both
// the repeat-obs and changed-obs paths.
func TestGoldenFitMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		T       int
		genSeed int64
		cfg     Config
	}{
		{"short", 300, 1, Config{HiddenStates: 2, Symbols: 4, Seed: 7}},
		{"medium", 1500, 2, Config{HiddenStates: 2, Symbols: 4, Seed: 11}},
		{"tight-threshold", 800, 3, Config{HiddenStates: 2, Symbols: 4, Seed: 3, Threshold: 1e-5, MaxIter: 60}},
		{"three-state", 1000, 4, Config{HiddenStates: 3, Symbols: 4, Seed: 19}},
	}
	sc := NewScratch()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obs := generate(twoRegimeModel(), tc.T, stats.NewRNG(tc.genSeed))
			gotM, gotR, err := FitWithScratch(obs, tc.cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			wantM, wantR, err := refFit(obs, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalVec(t, "Pi", gotM.Pi, wantM.Pi)
			requireIdenticalMat(t, "A", gotM.A, wantM.A)
			requireIdenticalMat(t, "B", gotM.B, wantM.B)
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
// and requires the second fit (which hits the cached per-step emission
// pointers) to reproduce the first bit-for-bit.
func TestGoldenScratchReuseStable(t *testing.T) {
	obs := generate(twoRegimeModel(), 1200, stats.NewRNG(5))
	cfg := Config{HiddenStates: 2, Symbols: 4, Seed: 23}
	sc := NewScratch()
	m1, r1, err := FitWithScratch(obs, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot: the returned model aliases sc.
	snap := newZeroModel(m1.N, m1.M)
	m1.copyInto(snap)
	ll1, it1 := r1.LogLik, r1.Iterations
	m2, r2, err := FitWithScratch(obs, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalVec(t, "Pi", m2.Pi, snap.Pi)
	requireIdenticalMat(t, "A", m2.A, snap.A)
	requireIdenticalMat(t, "B", m2.B, snap.B)
	requireIdenticalVec(t, "C", m2.C, snap.C)
	if r2.LogLik != ll1 || r2.Iterations != it1 {
		t.Errorf("re-fit drifted: loglik %v vs %v, iters %d vs %d", r2.LogLik, ll1, r2.Iterations, it1)
	}
}

// TestGoldenLogLikelihoodMatchesReference pins LogLikelihood, which sums the
// log scale factors once after the pass, to the reference E-step's sum.
func TestGoldenLogLikelihoodMatchesReference(t *testing.T) {
	obs := generate(twoRegimeModel(), 900, stats.NewRNG(6))
	m := NewRandomModel(2, 4, obs, stats.NewRNG(31))
	_, _, want := refForwardBackward(m, obs)
	if got := m.LogLikelihood(obs); got != want {
		t.Errorf("LogLikelihood %v (bits %x), reference %v (bits %x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}
