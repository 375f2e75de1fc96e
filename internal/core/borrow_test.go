package core

import (
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dominantlink/internal/stats"
	"dominantlink/internal/testutil"
	"dominantlink/internal/trace"
)

// The restart-borrowing tests drive an engine whose EM fit is a fake that
// blocks on channels: every restart announces itself and finishes only
// when the test releases it, so each step waits on an event, never on a
// sleep.

// fitCall is one restart announced by blockingFits.
type fitCall struct {
	seed    int64 // IdentifyConfig.Seed: which stream the window is from
	r       int
	helper  bool // fitted on a borrowing helper, not on the slot holder
	release chan struct{}
}

// blockingFits returns a fit that announces each restart on calls and
// finishes it once the test closes its release channel; a canceled
// identification returns ctx's error instead. The first restart panicAt
// that a helper fits panics once released.
func blockingFits(calls chan<- *fitCall, panicAt int) fitFunc {
	var panicked atomic.Bool
	return func(ctx context.Context, _ []int, cfg *IdentifyConfig, r int, _ *fitScratch) restartFit {
		c := &fitCall{seed: cfg.Seed, r: r, helper: onHelper(), release: make(chan struct{})}
		select {
		case calls <- c:
		case <-ctx.Done():
			return restartFit{err: ctx.Err()}
		}
		select {
		case <-c.release:
		case <-ctx.Done():
			return restartFit{err: ctx.Err()}
		}
		if r == panicAt && c.helper && !panicked.Swap(true) {
			panic("injected fit fault")
		}
		return restartFit{pmf: stats.PMF{0.2, 0.2, 0.2, 0.2, 0.2}, iterations: 1, converged: true, loglik: -1}
	}
}

// onHelper reports whether the caller runs on a borrowing helper
// (restartRun.help) rather than on the goroutine that holds the slot.
func onHelper() bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(1, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*restartRun).help") {
			return true
		}
		if !more {
			return false
		}
	}
}

// nextCall waits for the next announced restart.
func nextCall(t *testing.T, calls <-chan *fitCall) *fitCall {
	t.Helper()
	select {
	case c := <-calls:
		return c
	case <-time.After(10 * time.Second):
		t.Fatal("no restart started")
		return nil
	}
}

// noCall fails the test if a restart has been announced and not read.
func noCall(t *testing.T, calls <-chan *fitCall, why string) {
	t.Helper()
	select {
	case c := <-calls:
		t.Fatalf("restart %d of seed %d (helper %v) started %s", c.r, c.seed, c.helper, why)
	default:
	}
}

// waitUntil yields until cond holds; the timeout only bounds a failing
// test.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// streamWindows streams src on eng in tumbling 1000-probe windows, every
// window identified.
func streamWindows(t *testing.T, ctx context.Context, eng *Engine, wcfg WindowConfig, src trace.ObservationSource, cfg IdentifyConfig) <-chan WindowResult {
	t.Helper()
	wcfg.Size, wcfg.DisableGate = 1000, true
	ch, err := NewWindower(eng, wcfg).Stream(ctx, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// finish releases the held restarts and every one announced after them
// until each stream's channel closes, and returns the streams' results.
func finish(calls <-chan *fitCall, held []*fitCall, streams ...<-chan WindowResult) [][]WindowResult {
	for _, c := range held {
		close(c.release)
	}
	out := make([][]WindowResult, len(streams))
	done := make(chan struct{})
	for i, ch := range streams {
		go func() {
			for res := range ch {
				out[i] = append(out[i], res)
			}
			done <- struct{}{}
		}()
	}
	for open := len(streams); open > 0; {
		select {
		case c := <-calls:
			close(c.release)
		case <-done:
			open--
		}
	}
	return out
}

// pausedSource yields obs one observation per call, holding back from
// index pause until resume is closed.
type pausedSource struct {
	obs    []trace.Observation
	pause  int
	resume chan struct{}
	i      int
}

func (s *pausedSource) Next() (trace.Observation, error) {
	if s.i == s.pause {
		<-s.resume
	}
	if s.i == len(s.obs) {
		return trace.Observation{}, io.EOF
	}
	s.i++
	return s.obs[s.i-1], nil
}

// TestRestartBorrowHandsBackSlot: on a shared engine of two slots, stream
// A's window borrows the free slot for a helper. Once stream B's window
// waits, A's owner borrows nothing at its restart boundary, and B gets the
// helper's slot as soon as the helper's current restart ends.
func TestRestartBorrowHandsBackSlot(t *testing.T) {
	base := testutil.GoroutineBaseline()
	calls := make(chan *fitCall)
	eng := NewSharedEngine(2)
	eng.fit = blockingFits(calls, -1)
	ctx := context.Background()
	cfg := IdentifyConfig{Seed: 1, Restarts: 5}

	a := streamWindows(t, ctx, eng, WindowConfig{}, synthTrace(1000, 0.020, 0.120, 0.25, 1).Source(), cfg)
	owner, helper := nextCall(t, calls), nextCall(t, calls)
	if owner.helper {
		owner, helper = helper, owner
	}
	if owner.helper || !helper.helper {
		t.Fatalf("stream A's window did not borrow the free slot: helper flags %v, %v", owner.helper, helper.helper)
	}

	cfg.Seed = 2
	b := streamWindows(t, ctx, eng, WindowConfig{}, synthTrace(1000, 0.020, 0.120, 0.25, 2).Source(), cfg)
	waitUntil(t, "stream B's window waits for a slot", func() bool { return eng.shared.waiters() == 1 })
	noCall(t, calls, "while A held both slots")

	close(owner.release)
	if owner = nextCall(t, calls); owner.seed != 1 || owner.helper {
		t.Fatalf("after A's owner finished a restart, restart %d of seed %d (helper %v) started; want A's owner's next", owner.r, owner.seed, owner.helper)
	}
	if n := len(eng.shared.slots); n != 2 {
		t.Fatalf("%d slots held after A's owner crossed a restart boundary, want 2", n)
	}

	close(helper.release)
	c := nextCall(t, calls)
	if c.seed != 2 || c.helper {
		t.Fatalf("after A's helper finished its restart, restart %d of seed %d (helper %v) started; want B's window on the handed-back slot", c.r, c.seed, c.helper)
	}
	for i, results := range finish(calls, []*fitCall{owner, c}, a, b) {
		if len(results) != 1 || results[0].Err != nil || results[0].ID == nil {
			t.Fatalf("stream %d results = %+v, want one identified window", i, results)
		}
	}
	if n := len(eng.shared.slots); n != 0 {
		t.Fatalf("%d slots still held after both streams ended", n)
	}
	testutil.WaitGoroutines(t, base)
}

// TestRestartBorrowBounds: a window's restarts never run on more workers
// than the engine has slots, than Restarts, or than a positive
// Parallelism, and every restart runs exactly once.
func TestRestartBorrowBounds(t *testing.T) {
	cases := []struct {
		name                    string
		slots, restarts, par, w int
	}{
		{"restarts", 4, 3, 0, 3},
		{"slots", 2, 5, 0, 2},
		{"parallelism", 4, 5, 2, 2},
		{"serial", 3, 5, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := make(chan *fitCall)
			eng := NewSharedEngine(tc.slots)
			eng.fit = blockingFits(calls, -1)
			cfg := IdentifyConfig{Seed: 1, Restarts: tc.restarts, Parallelism: tc.par}
			ch := streamWindows(t, context.Background(), eng, WindowConfig{}, synthTrace(1000, 0.020, 0.120, 0.25, 1).Source(), cfg)

			var running []*fitCall
			seen := make(map[int]bool)
			announce := func() {
				c := nextCall(t, calls)
				if seen[c.r] {
					t.Fatalf("restart %d started twice", c.r)
				}
				seen[c.r] = true
				running = append(running, c)
			}
			for range tc.w {
				announce()
			}
			// Slots held = the owner plus its helpers, each of which took
			// its slot before it announced a restart.
			if n := len(eng.shared.slots); n != tc.w {
				t.Fatalf("%d workers, want %d", n, tc.w)
			}
			for len(seen) < tc.restarts {
				close(running[0].release)
				running = running[1:]
				announce()
				if n := len(eng.shared.slots); n > tc.w || len(running) > tc.w {
					t.Fatalf("%d slots held and %d restarts running, want at most %d", n, len(running), tc.w)
				}
			}
			results := finish(calls, running, ch)[0]
			if len(results) != 1 || results[0].Err != nil {
				t.Fatalf("results = %+v, want one identified window", results)
			}
		})
	}
}

// TestSlotPoolYieldsToWaiters: tryAcquire lends no slot while a window
// waits, even a free one (the instant between a release and the waiter's
// hand-over), and never more slots than the pool has.
func TestSlotPoolYieldsToWaiters(t *testing.T) {
	p := newSlotPool(2, 1)
	p.waiting.Add(1) // a window between its failed fast path and its blocked send
	if p.tryAcquire() {
		t.Fatal("lent a slot while a window waits")
	}
	p.waiting.Add(-1)
	if !p.tryAcquire() {
		t.Fatal("free slot not lent while nobody waits")
	}
	if p.tryAcquire() {
		t.Fatal("lent more slots than the pool has")
	}
	p.release()
	p.release()
	if !p.acquire(context.Background()) || len(p.slots) != 1 {
		t.Fatal("acquire on an empty pool did not take a slot")
	}
}

// TestRestartBorrowCancel: canceling an identification while its restarts
// run on a borrowed slot ends it with ctx's error, through ctx or through
// WindowConfig.Deadline, and every borrowed slot goes back to the pool.
func TestRestartBorrowCancel(t *testing.T) {
	cfg := IdentifyConfig{Seed: 1, Restarts: 5}
	cfg.defaults()

	t.Run("ctx", func(t *testing.T) {
		base := testutil.GoroutineBaseline()
		calls := make(chan *fitCall)
		pool := newSlotPool(2, 1)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := runRestarts(ctx, nil, cfg, pool, blockingFits(calls, -1))
			done <- err
		}()
		if a, b := nextCall(t, calls), nextCall(t, calls); a.helper == b.helper {
			t.Fatalf("no helper borrowed the free slot: helper flags %v, %v", a.helper, b.helper)
		}
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if n := len(pool.slots); n != 1 {
			t.Fatalf("%d slots held after cancel, want only the caller's 1", n)
		}
		testutil.WaitGoroutines(t, base)
	})

	t.Run("stream-ctx", func(t *testing.T) {
		base := testutil.GoroutineBaseline()
		calls := make(chan *fitCall)
		eng := NewSharedEngine(2)
		eng.fit = blockingFits(calls, -1)
		ctx, cancel := context.WithCancel(context.Background())
		ch := streamWindows(t, ctx, eng, WindowConfig{}, synthTrace(1000, 0.020, 0.120, 0.25, 1).Source(), cfg)
		nextCall(t, calls)
		nextCall(t, calls)
		cancel()
		// The emitter may drop the canceled window's result; one that
		// arrives must carry ctx's error.
		for res := range ch {
			if !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("result err = %v, want context.Canceled", res.Err)
			}
		}
		waitUntil(t, "every slot is back in the pool", func() bool { return len(eng.shared.slots) == 0 })
		testutil.WaitGoroutines(t, base)
	})

	t.Run("deadline", func(t *testing.T) {
		base := testutil.GoroutineBaseline()
		calls := make(chan *fitCall)
		eng := NewSharedEngine(2)
		eng.fit = blockingFits(calls, -1)
		wcfg := WindowConfig{Deadline: 500 * time.Millisecond}
		ch := streamWindows(t, context.Background(), eng, wcfg, synthTrace(1000, 0.020, 0.120, 0.25, 1).Source(), cfg)
		if a, b := nextCall(t, calls), nextCall(t, calls); a.helper == b.helper {
			t.Fatalf("no helper borrowed the free slot: helper flags %v, %v", a.helper, b.helper)
		}
		results := collectStream(t, ch)
		if len(results) != 1 || !errors.Is(results[0].Err, ErrWindowDeadline) {
			t.Fatalf("results = %+v, want one window failing with ErrWindowDeadline", results)
		}
		if n := len(eng.shared.slots); n != 0 {
			t.Fatalf("%d slots still held after the stream ended", n)
		}
		testutil.WaitGoroutines(t, base)
	})
}

// TestRestartPanicOnHelper: a fit that panics on a borrowing helper fails
// its window with the engine's panic error instead of killing the
// process, and the stream goes on to its next window.
func TestRestartPanicOnHelper(t *testing.T) {
	base := testutil.GoroutineBaseline()
	calls := make(chan *fitCall)
	eng := NewSharedEngine(2)
	eng.fit = blockingFits(calls, 3)
	src := &pausedSource{obs: synthTrace(2000, 0.020, 0.120, 0.25, 1).Observations, pause: 1000, resume: make(chan struct{})}
	ch := streamWindows(t, context.Background(), eng, WindowConfig{}, src, IdentifyConfig{Seed: 1, Restarts: 5})

	owner, helper := nextCall(t, calls), nextCall(t, calls)
	if owner.helper {
		owner, helper = helper, owner
	}
	if owner.helper || !helper.helper {
		t.Fatalf("window 0 did not borrow the free slot: helper flags %v, %v", owner.helper, helper.helper)
	}
	// Walk the helper, alone, through restarts 2 and 3; restart 3 panics.
	for r := 2; r <= 3; r++ {
		close(helper.release)
		if helper = nextCall(t, calls); !helper.helper || helper.r != r {
			t.Fatalf("restart %d (helper %v) started, want restart %d on the helper", helper.r, helper.helper, r)
		}
	}
	close(src.resume)
	results := finish(calls, []*fitCall{owner, helper}, ch)[0]
	if len(results) != 2 {
		t.Fatalf("got %d windows, want 2", len(results))
	}
	if res := results[0]; res.ID != nil || res.Err == nil || !strings.Contains(res.Err.Error(), "core: identification panicked: injected fit fault") {
		t.Fatalf("window 0 = %+v, want the helper's panic as its error", res)
	}
	if res := results[1]; res.Err != nil || res.ID == nil {
		t.Fatalf("window 1 = %+v, want an identified window after the panic", res)
	}
	if n := len(eng.shared.slots); n != 0 {
		t.Fatalf("%d slots still held after the stream ended", n)
	}
	testutil.WaitGoroutines(t, base)
}

// TestRestartSetBest pins the one restart reduction: the highest
// log-likelihood wins, ties go to the lowest restart, a finite fit beats
// NaN ones, PMFs with no comparable log-likelihood are ErrNonFinite, a
// set without PMFs is ErrNoLosses, and the first error in restart order
// fails the set.
func TestRestartSetBest(t *testing.T) {
	pmf := stats.PMF{1}
	nan := math.NaN()
	boom := errors.New("boom")
	cases := []struct {
		name string
		set  restartSet
		win  int // winning restart when err is nil
		err  error
	}{
		{"highest", restartSet{{pmf: pmf, loglik: -3}, {pmf: pmf, loglik: -1}, {pmf: pmf, loglik: -2}}, 1, nil},
		{"tie", restartSet{{pmf: pmf, loglik: -2}, {pmf: pmf, loglik: -1}, {pmf: pmf, loglik: -1}}, 1, nil},
		{"finite-beats-nan", restartSet{{pmf: pmf, loglik: nan}, {pmf: pmf, loglik: -5}, {pmf: pmf, loglik: nan}}, 1, nil},
		{"all-nan", restartSet{{pmf: pmf, loglik: nan}, {pmf: pmf, loglik: nan}}, 0, ErrNonFinite},
		{"neg-inf", restartSet{{pmf: pmf, loglik: math.Inf(-1)}}, 0, ErrNonFinite},
		{"no-losses", restartSet{{loglik: -1}, {loglik: nan}}, 0, ErrNoLosses},
		{"first-error", restartSet{{pmf: pmf, loglik: -1}, {err: boom}, {err: ErrNonFinite}}, 0, boom},
	}
	for _, tc := range cases {
		for i := range tc.set {
			tc.set[i].iterations = i
		}
		got, err := tc.set.best()
		if tc.err != nil {
			if !errors.Is(err, tc.err) || got.pmf != nil {
				t.Errorf("%s: best() = %+v, %v; want %v", tc.name, got, err, tc.err)
			}
			continue
		}
		if err != nil || got.iterations != tc.win {
			t.Errorf("%s: best() = restart %d, %v; want restart %d", tc.name, got.iterations, err, tc.win)
		}
	}
}
