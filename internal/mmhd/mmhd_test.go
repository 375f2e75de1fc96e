package mmhd

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
		if rng.Float64() < m.lossProb(state) {
			obs[t] = Loss
		} else {
			obs[t] = m.Symbol(state)
		}
		state = draw(m.A[state])
	}
	return obs
}

// bursty2x3 is an MMHD with N=2, M=3 whose symbol dynamics are sticky and
// whose losses concentrate on symbol 3.
func bursty2x3() *Model {
	m := &Model{N: 2, M: 3}
	S := m.States()
	m.Pi = make([]float64, S)
	for i := range m.Pi {
		m.Pi[i] = 1 / float64(S)
	}
	m.A = make([][]float64, S)
	for s := 0; s < S; s++ {
		row := make([]float64, S)
		for sp := 0; sp < S; sp++ {
			w := 1.0
			if m.Symbol(sp) == m.Symbol(s) {
				w = 10 // sticky symbols
			}
			if sp/m.M == s/m.M {
				w *= 3 // sticky hidden layer
			}
			row[sp] = w
		}
		normalizeRow(row)
		m.A[s] = row
	}
	m.C = []float64{0.001, 0.01, 0.3}
	return m
}

// denseLogLik is an O(T*S^2) reference forward pass without the sparse
// active-set optimization, used to validate the production implementation.
func denseLogLik(m *Model, obs []int) float64 {
	S := m.States()
	alpha := make([]float64, S)
	next := make([]float64, S)
	var ll float64
	for i := 0; i < S; i++ {
		alpha[i] = m.Pi[i] * m.emission(i, obs[0])
	}
	scale := sum(alpha)
	ll += math.Log(scale)
	scaleVec(alpha, scale)
	for t := 1; t < len(obs); t++ {
		for sp := 0; sp < S; sp++ {
			var acc float64
			for s := 0; s < S; s++ {
				acc += alpha[s] * m.A[s][sp]
			}
			next[sp] = acc * m.emission(sp, obs[t])
		}
		scale = sum(next)
		ll += math.Log(scale)
		scaleVec(next, scale)
		copy(alpha, next)
	}
	return ll
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func scaleVec(v []float64, s float64) {
	for i := range v {
		v[i] /= s
	}
}

func TestSparseMatchesDense(t *testing.T) {
	rng := stats.NewRNG(1)
	truth := bursty2x3()
	obs := generate(truth, 800, rng)
	for _, perState := range []bool{false, true} {
		m := newRandomModel(2, 3, obs, stats.NewRNG(7), perState)
		got := m.LogLikelihood(obs)
		want := denseLogLik(m, obs)
		if math.Abs(got-want) > 1e-8*math.Abs(want) {
			t.Fatalf("perState=%v: sparse loglik %v != dense %v", perState, got, want)
		}
	}
}

func TestSparseMatchesDenseProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%3) + 1
		mSym := int(mRaw%4) + 2
		rng := stats.NewRNG(seed)
		// Random model, random observations (with enforced coverage of all
		// symbols so every state is reachable).
		probe := newRandomModel(n, mSym, nil, rng, false)
		probe.C = make([]float64, mSym)
		for i := range probe.C {
			probe.C[i] = rng.Uniform(0, 0.3)
		}
		obs := generate(probe, 200, rng)
		for i := 0; i < mSym; i++ {
			obs[i] = i + 1
		}
		m := newRandomModel(n, mSym, obs, rng, true)
		got := m.LogLikelihood(obs)
		want := denseLogLik(m, obs)
		return math.Abs(got-want) <= 1e-8*math.Abs(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEMIncreasesLikelihood(t *testing.T) {
	rng := stats.NewRNG(2)
	obs := generate(bursty2x3(), 3000, rng)
	for _, perState := range []bool{false, true} {
		model := newRandomModel(2, 3, obs, stats.NewRNG(3), perState)
		prev := math.Inf(-1)
		for i := 0; i < 20; i++ {
			next, ll := model.emStep(obs)
			if ll < prev-1e-6 {
				t.Fatalf("perState=%v: likelihood decreased at %d: %v -> %v", perState, i, prev, ll)
			}
			prev = ll
			model = next
		}
	}
}

func TestFitRecoversLossConcentration(t *testing.T) {
	rng := stats.NewRNG(4)
	obs := generate(bursty2x3(), 20000, rng)
	for _, perState := range []bool{false, true} {
		_, res, err := Fit(obs, Config{HiddenStates: 2, Symbols: 3, Seed: 5, PerStateLoss: perState})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("perState=%v: EM did not converge", perState)
		}
		if res.VirtualPMF[2] < 0.8 {
			t.Fatalf("perState=%v: posterior misses symbol 3: %v", perState, res.VirtualPMF)
		}
	}
}

func TestPosteriorNormalized(t *testing.T) {
	rng := stats.NewRNG(6)
	obs := generate(bursty2x3(), 2000, rng)
	_, res, err := Fit(obs, Config{HiddenStates: 3, Symbols: 3, Seed: 1, PerStateLoss: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.VirtualPMF.Sum()-1) > 1e-9 {
		t.Fatalf("posterior mass %v", res.VirtualPMF.Sum())
	}
}

func TestNoLossesNilPosterior(t *testing.T) {
	obs := []int{1, 2, 3, 2, 1, 2, 3}
	m, res, err := Fit(obs, Config{HiddenStates: 2, Symbols: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualPMF != nil || m.LossSymbolPosterior(obs) != nil {
		t.Fatal("no losses should give nil posterior")
	}
}

func TestValidation(t *testing.T) {
	if _, _, err := Fit(nil, Config{HiddenStates: 1, Symbols: 2}); err == nil {
		t.Fatal("empty sequence should error")
	}
	if _, _, err := Fit([]int{4}, Config{HiddenStates: 1, Symbols: 3}); err == nil {
		t.Fatal("out-of-range symbol should error")
	}
	if _, _, err := Fit([]int{1}, Config{HiddenStates: 0, Symbols: 3}); err == nil {
		t.Fatal("N=0 should error")
	}
	if _, _, err := Fit([]int{1}, Config{HiddenStates: 1, Symbols: 0}); err == nil {
		t.Fatal("M=0 should error")
	}
}

// TestN1IsMarkovChain: with one hidden state the fitted transition matrix
// must reproduce the observed symbol bigram frequencies on a loss-free
// sequence.
func TestN1IsMarkovChain(t *testing.T) {
	// Deterministic cycle 1,2,3,1,2,3...
	obs := make([]int, 900)
	for i := range obs {
		obs[i] = i%3 + 1
	}
	m, _, err := Fit(obs, Config{HiddenStates: 1, Symbols: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A[symbol1 -> symbol2] ~ 1 etc.
	if m.A[0][1] < 0.99 || m.A[1][2] < 0.99 || m.A[2][0] < 0.99 {
		t.Fatalf("cycle transitions not learned: %v", m.A)
	}
}

// TestGammaNormalized: posterior marginals over active states sum to one.
func TestGammaNormalized(t *testing.T) {
	rng := stats.NewRNG(9)
	obs := generate(bursty2x3(), 400, rng)
	m := newRandomModel(2, 3, obs, stats.NewRNG(10), true)
	es := m.eStep(obs)
	for tt, g := range es.gamma {
		var s float64
		for _, v := range g {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("gamma at %d sums to %v", tt, s)
		}
	}
}

// TestEMStepPreservesStochasticity mirrors the HMM property test.
func TestEMStepPreservesStochasticity(t *testing.T) {
	f := func(seed int64, perState bool) bool {
		rng := stats.NewRNG(seed)
		obs := generate(bursty2x3(), 500, rng)
		m := newRandomModel(2, 3, obs, rng, perState)
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
			// Pi is gamma[0], only active states nonzero: still a distribution.
			return false
		}
		for i := range next.A {
			if !ok(next.A[i]) {
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

// TestPerStateBeatsPerSymbolOnRegimeData: construct data in which the same
// symbol is lossy in one hidden regime and loss-free in another; the
// per-state model must attain a higher likelihood.
func TestPerStateBeatsPerSymbolOnRegimeData(t *testing.T) {
	rng := stats.NewRNG(11)
	// Regime A: symbol 1, lossless. Regime B: symbol 1, 40% loss.
	obs := make([]int, 0, 6000)
	for block := 0; block < 30; block++ {
		lossy := block%2 == 1
		for i := 0; i < 200; i++ {
			if lossy && rng.Float64() < 0.4 {
				obs = append(obs, Loss)
			} else {
				obs = append(obs, 1+rng.Intn(2)) // symbols 1..2
			}
		}
	}
	bestLL := func(perState bool) float64 {
		best := math.Inf(-1)
		for seed := int64(0); seed < 3; seed++ {
			m, _, err := Fit(obs, Config{HiddenStates: 2, Symbols: 2, Seed: seed, PerStateLoss: perState})
			if err != nil {
				t.Fatal(err)
			}
			if ll := m.LogLikelihood(obs); ll > best {
				best = ll
			}
		}
		return best
	}
	perSym := bestLL(false)
	perState := bestLL(true)
	if perState <= perSym {
		t.Fatalf("per-state LL %v should beat per-symbol LL %v on regime data", perState, perSym)
	}
}

func TestSymbolIndexing(t *testing.T) {
	m := &Model{N: 3, M: 4}
	if m.States() != 12 {
		t.Fatalf("States = %d", m.States())
	}
	for s := 0; s < m.States(); s++ {
		v := m.Symbol(s)
		if v < 1 || v > 4 {
			t.Fatalf("Symbol(%d) = %d", s, v)
		}
	}
	if m.Symbol(0) != 1 || m.Symbol(3) != 4 || m.Symbol(4) != 1 {
		t.Fatal("symbol layout wrong")
	}
}

// TestParamDeltaNaN pins the convergence guard: a NaN parameter anywhere
// makes paramDelta NaN, whatever finite differences come before or after
// it, so delta < Threshold is false and a NaN-poisoned fit never reports
// Converged. Finite deltas stay the plain maximum.
func TestParamDeltaNaN(t *testing.T) {
	model := func() *Model {
		return &Model{
			Pi: []float64{0.5, 0.25, 0.25},
			A:  [][]float64{{0.5, 0.5, 0}, {0.25, 0.5, 0.25}, {0, 0.5, 0.5}},
			C:  []float64{0.125, 0.25, 0.5},
		}
	}
	a, b := model(), model()
	b.A[1][2] = 0.75
	b.C[0] = 0.0625
	if d := paramDelta(a, b); d != 0.5 {
		t.Fatalf("finite paramDelta = %v, want 0.5", d)
	}
	slots := []func(m *Model) *float64{
		func(m *Model) *float64 { return &m.Pi[0] },
		func(m *Model) *float64 { return &m.A[1][1] },
		func(m *Model) *float64 { return &m.A[2][2] },
		func(m *Model) *float64 { return &m.C[2] },
	}
	for i, slot := range slots {
		c := model()
		c.A[1][2] = 0.75 // a larger finite difference elsewhere
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
