package hmm

import (
	"math"
	"testing"
	"testing/quick"

	"dominantlink/internal/stats"
)

// generate samples an observation sequence from a model.
func generate(m *Model, T int, rng *stats.RNG) []int {
	draw := func(p []float64) int {
		u := rng.Float64()
		acc := 0.0
		for i, v := range p {
			acc += v
			if u < acc {
				return i
			}
		}
		return len(p) - 1
	}
	obs := make([]int, T)
	state := draw(m.Pi)
	for t := 0; t < T; t++ {
		sym := draw(m.B[state])
		if rng.Float64() < m.C[sym] {
			obs[t] = Loss
		} else {
			obs[t] = sym + 1
		}
		state = draw(m.A[state])
	}
	return obs
}

// twoRegimeModel: state 0 emits low symbols losslessly, state 1 emits high
// symbols and loses them often.
func twoRegimeModel() *Model {
	return &Model{
		N: 2, M: 4,
		Pi: []float64{0.5, 0.5},
		A:  [][]float64{{0.95, 0.05}, {0.05, 0.95}},
		B:  [][]float64{{0.6, 0.4, 0, 0}, {0, 0, 0.4, 0.6}},
		C:  []float64{0.001, 0.001, 0.05, 0.3},
	}
}

func TestValidateObs(t *testing.T) {
	if _, _, err := Fit(nil, Config{HiddenStates: 1, Symbols: 2}); err == nil {
		t.Fatal("empty sequence should error")
	}
	if _, _, err := Fit([]int{1, 5}, Config{HiddenStates: 1, Symbols: 2}); err == nil {
		t.Fatal("out-of-range symbol should error")
	}
	if _, _, err := Fit([]int{1}, Config{HiddenStates: 0, Symbols: 2}); err == nil {
		t.Fatal("zero hidden states should error")
	}
	if _, _, err := Fit([]int{1}, Config{HiddenStates: 1, Symbols: 0}); err == nil {
		t.Fatal("zero symbols should error")
	}
}

func TestEMIncreasesLikelihood(t *testing.T) {
	rng := stats.NewRNG(1)
	obs := generate(twoRegimeModel(), 3000, rng)
	model := NewRandomModel(2, 4, obs, stats.NewRNG(2))
	prev := math.Inf(-1)
	for i := 0; i < 25; i++ {
		next, ll := model.emStep(obs)
		if ll < prev-1e-6 {
			t.Fatalf("likelihood decreased at iteration %d: %v -> %v", i, prev, ll)
		}
		prev = ll
		model = next
	}
}

func TestFitConverges(t *testing.T) {
	rng := stats.NewRNG(3)
	obs := generate(twoRegimeModel(), 5000, rng)
	_, res, err := Fit(obs, Config{HiddenStates: 2, Symbols: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("EM did not converge in %d iterations", res.Iterations)
	}
	if res.VirtualPMF == nil {
		t.Fatal("sequence with losses must produce a posterior")
	}
	if math.Abs(res.VirtualPMF.Sum()-1) > 1e-9 {
		t.Fatalf("posterior mass = %v", res.VirtualPMF.Sum())
	}
}

// TestPosteriorRecoversLossSymbols: when losses only strike high symbols,
// the inferred virtual-delay distribution must concentrate there.
func TestPosteriorRecoversLossSymbols(t *testing.T) {
	rng := stats.NewRNG(5)
	obs := generate(twoRegimeModel(), 20000, rng)
	_, res, err := Fit(obs, Config{HiddenStates: 2, Symbols: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	low := res.VirtualPMF[0] + res.VirtualPMF[1]
	high := res.VirtualPMF[2] + res.VirtualPMF[3]
	if high < 0.9 || low > 0.1 {
		t.Fatalf("posterior misplaced: low=%v high=%v (%v)", low, high, res.VirtualPMF)
	}
}

func TestNoLossesNilPosterior(t *testing.T) {
	obs := []int{1, 2, 1, 2, 2, 1}
	m, res, err := Fit(obs, Config{HiddenStates: 1, Symbols: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualPMF != nil {
		t.Fatal("no losses should give nil posterior")
	}
	if m.LossSymbolPosterior(obs) != nil {
		t.Fatal("LossSymbolPosterior should be nil without losses")
	}
}

// TestLikelihoodMatchesBruteForce: for a tiny model and sequence, the
// scaled forward pass must equal direct enumeration over hidden paths.
func TestLikelihoodMatchesBruteForce(t *testing.T) {
	m := &Model{
		N: 2, M: 2,
		Pi: []float64{0.7, 0.3},
		A:  [][]float64{{0.8, 0.2}, {0.3, 0.7}},
		B:  [][]float64{{0.9, 0.1}, {0.2, 0.8}},
		C:  []float64{0.05, 0.4},
	}
	obs := []int{1, Loss, 2, 2, Loss, 1}
	// Brute force: sum over all 2^6 hidden paths.
	var total float64
	var rec func(tt, state int, p float64)
	rec = func(tt, state int, p float64) {
		p *= m.emission(state, obs[tt])
		if tt == len(obs)-1 {
			total += p
			return
		}
		for nx := 0; nx < m.N; nx++ {
			rec(tt+1, nx, p*m.A[state][nx])
		}
	}
	for s0 := 0; s0 < m.N; s0++ {
		rec(0, s0, m.Pi[s0])
	}
	got := m.LogLikelihood(obs)
	want := math.Log(total)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("loglik = %v, brute force = %v", got, want)
	}
}

// TestGammaNormalized: posterior state marginals sum to one at every step.
func TestGammaNormalized(t *testing.T) {
	rng := stats.NewRNG(8)
	obs := generate(twoRegimeModel(), 500, rng)
	m := NewRandomModel(3, 4, obs, stats.NewRNG(9))
	gamma, _ := m.forwardBackward(obs, NewScratch())
	for tt, g := range gamma {
		var sum float64
		for _, v := range g {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("gamma at %d sums to %v", tt, sum)
		}
	}
}

// TestEMStepPreservesStochasticity: all re-estimated parameters remain
// valid distributions / probabilities for arbitrary loss placements.
func TestEMStepPreservesStochasticity(t *testing.T) {
	f := func(seed int64, lossEvery uint8) bool {
		rng := stats.NewRNG(seed)
		obs := generate(twoRegimeModel(), 400, rng)
		step := int(lossEvery%7) + 2
		for i := 0; i < len(obs); i += step {
			obs[i] = Loss
		}
		m := NewRandomModel(2, 4, obs, rng)
		next, _ := m.emStep(obs)
		ok := func(row []float64) bool {
			var sum float64
			for _, v := range row {
				if v < -1e-12 || math.IsNaN(v) {
					return false
				}
				sum += v
			}
			return math.Abs(sum-1) < 1e-9
		}
		if !ok(next.Pi) {
			return false
		}
		for i := range next.A {
			if !ok(next.A[i]) || !ok(next.B[i]) {
				return false
			}
		}
		for _, c := range next.C {
			if c < 0 || c > 1 || math.IsNaN(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDegenerateSingleState(t *testing.T) {
	obs := []int{1, 2, Loss, 2, 1, 2, Loss, 1, 2, 2}
	_, res, err := Fit(obs, Config{HiddenStates: 1, Symbols: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualPMF == nil || math.Abs(res.VirtualPMF.Sum()-1) > 1e-9 {
		t.Fatalf("posterior = %v", res.VirtualPMF)
	}
}

// TestParamDeltaNaN pins the convergence guard: a NaN parameter anywhere
// makes paramDelta NaN, whatever finite differences come before or after
// it, so delta < Threshold is false and a NaN-poisoned fit never reports
// Converged. Finite deltas stay the plain maximum.
func TestParamDeltaNaN(t *testing.T) {
	model := func() *Model {
		return &Model{
			Pi: []float64{0.5, 0.5},
			A:  [][]float64{{0.75, 0.25}, {0.25, 0.75}},
			B:  [][]float64{{0.5, 0.25, 0.25}, {0.25, 0.25, 0.5}},
			C:  []float64{0.125, 0.25, 0.5},
		}
	}
	a, b := model(), model()
	b.B[1][2] = 0.0
	b.C[0] = 0.0625
	if d := paramDelta(a, b); d != 0.5 {
		t.Fatalf("finite paramDelta = %v, want 0.5", d)
	}
	slots := []func(m *Model) *float64{
		func(m *Model) *float64 { return &m.Pi[0] },
		func(m *Model) *float64 { return &m.A[1][0] },
		func(m *Model) *float64 { return &m.B[0][1] },
		func(m *Model) *float64 { return &m.C[2] },
	}
	for i, slot := range slots {
		c := model()
		c.B[1][2] = 0.0 // a larger finite difference elsewhere
		*slot(c) = math.NaN()
		d := paramDelta(a, c)
		if !math.IsNaN(d) || d < 1e-3 {
			t.Errorf("slot %d: paramDelta = %v with a NaN parameter, want NaN", i, d)
		}
	}
	if d := maxAbsDiff([]float64{0, 1}, []float64{0.5, 3}, math.NaN()); !math.IsNaN(d) {
		t.Errorf("maxAbsDiff dropped an incoming NaN: %v", d)
	}
}
