package monitor

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dominantlink/internal/core"
	"dominantlink/internal/faultinject"
	"dominantlink/internal/obs"
)

// TestLogStreamFaultReconstruction is the observability acceptance test:
// monitors under injected engine faults write one interleaved JSON log
// stream, and this test reconstructs, from the stream alone, every
// injected fault — which path, which window, and the recovery action the
// stack took (the session kept identifying and closed cleanly).
//
// Each path runs on its own single-worker monitor so identifications
// happen in window order and the faulted window indexes are exactly
// determined by FailEvery; both monitors share one log stream, so the
// reconstruction works on interleaved multi-path output, which is what an
// operator's log pipeline actually sees.
func TestLogStreamFaultReconstruction(t *testing.T) {
	buf := &syncBuffer{}
	logger := mustLogger(t, buf, slog.LevelDebug)

	// FailEvery f over w windows on a 1-worker monitor faults windows
	// f-1, 2f-1, ... — and the final window index w-1 is never a multiple
	// of f, so every fault has a later successful window to recover to.
	cases := []struct {
		path      string
		failEvery int
		windows   int
	}{
		{"alpha", 5, 21},
		{"beta", 7, 22},
	}
	wantFaults := map[string][]int{
		"alpha": {4, 9, 14, 19},
		"beta":  {6, 13, 20},
	}

	var wg sync.WaitGroup
	for _, tc := range cases {
		wg.Add(1)
		go func(path string, failEvery, windows int) {
			defer wg.Done()
			m := New(Config{
				Workers: 1, QueueSize: 4096, Logger: logger,
				EngineHook: (&faultinject.EngineFaults{FailEvery: failEvery}).Hook(),
				Window:     core.WindowConfig{Size: 50, DisableGate: true},
			})
			defer m.Close(context.Background())
			s, _, err := m.Open(path, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < windows; i++ {
				if _, err := s.Offer(healthyObs(50)); err != nil {
					t.Error(err)
					return
				}
			}
			s.Drain()
			if err := s.Wait(context.Background()); err != nil {
				t.Error(err)
			}
		}(tc.path, tc.failEvery, tc.windows)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Reconstruction, from the log stream alone.
	events := jsonEvents(t, buf.Bytes())
	faults := map[string][]int{}
	for _, e := range eventsNamed(events, obs.EventWindowError) {
		errText, _ := e["error"].(string)
		if !strings.Contains(errText, "injected engine failure") {
			continue
		}
		path := e["path"].(string)
		faults[path] = append(faults[path], int(e["window"].(float64)))
	}
	doneByPath := map[string][]int{}
	for _, e := range eventsNamed(events, obs.EventWindowDone) {
		path := e["path"].(string)
		doneByPath[path] = append(doneByPath[path], int(e["window"].(float64)))
	}

	for path, want := range wantFaults {
		got := faults[path]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("path %s: reconstructed faults %v, want %v", path, got, want)
		}
		// Recovery: every faulted window is followed by a successful one
		// on the same path.
		for _, fw := range got {
			recovered := false
			for _, dw := range doneByPath[path] {
				if dw > fw {
					recovered = true
					break
				}
			}
			if !recovered {
				t.Errorf("path %s: no window_done after faulted window %d", path, fw)
			}
		}
		// ... and the session closed cleanly, with every window accounted.
		closed := false
		for _, e := range eventsNamed(events, obs.EventSessionClosed) {
			if e["path"] != path {
				continue
			}
			closed = true
			if _, terminal := e["error"]; terminal {
				t.Errorf("path %s: session_closed carries an error; engine faults must not kill the session: %v", path, e)
			}
			if windows := int(e["windows"].(float64)); windows != len(got)+len(doneByPath[path]) {
				t.Errorf("path %s: session_closed windows=%d, log stream shows %d faulted + %d done",
					path, windows, len(got), len(doneByPath[path]))
			}
		}
		if !closed {
			t.Errorf("path %s: no session_closed in the log stream", path)
		}
	}
}

// TestLogStreamStoreRecovery injects the other fault family — a torn WAL
// tail, as a crash leaves behind — and asserts the restarted monitor's log
// stream reports the recovery: a store_recovery event naming the path,
// the bytes dropped and that the tail was truncated, then a session_open
// resuming from the recovered window count.
func TestLogStreamStoreRecovery(t *testing.T) {
	dir := t.TempDir()

	// First incarnation: three windows into the durable store, clean close.
	m1 := New(Config{
		Workers: 1, StoreDir: dir,
		Window: core.WindowConfig{Size: 50, DisableGate: true},
	})
	s, _, err := m1.Open("p", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Offer(healthyObs(50)); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	if err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The crash: tear the tail off the newest segment.
	segs, err := filepath.Glob(filepath.Join(dir, "p", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments under %s: %v", dir, err)
	}
	seg := segs[len(segs)-1]
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	// Second incarnation, logging: opening the path must emit the
	// recovery, and the session must resume past the surviving records.
	buf := &syncBuffer{}
	m2 := New(Config{
		Workers: 1, StoreDir: dir, Logger: mustLogger(t, buf, slog.LevelDebug),
		Window: core.WindowConfig{Size: 50, DisableGate: true},
	})
	defer m2.Close(context.Background())
	if _, _, err := m2.Open("p", nil); err != nil {
		t.Fatal(err)
	}

	events := jsonEvents(t, buf.Bytes())
	recoveries := eventsNamed(events, obs.EventStoreRecovery)
	if len(recoveries) != 1 {
		t.Fatalf("torn tail produced %d store_recovery events, want 1:\n%s", len(recoveries), buf.Bytes())
	}
	rec := recoveries[0]
	if rec["path"] != "p" || rec["truncated"] != true {
		t.Errorf("store_recovery = %v, want path p, truncated true", rec)
	}
	if dropped, _ := rec["dropped_bytes"].(float64); dropped <= 0 {
		t.Errorf("store_recovery dropped_bytes = %v, want > 0", rec["dropped_bytes"])
	}

	opens := eventsNamed(events, obs.EventSessionOpen)
	if len(opens) != 1 {
		t.Fatalf("session_open events = %d, want 1", len(opens))
	}
	resume, _ := opens[0]["resume_window"].(float64)
	if resume != 2 {
		t.Errorf("resume_window = %v, want 2 (three windows stored, torn tail dropped one)", resume)
	}
}
