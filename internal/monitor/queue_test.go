package monitor

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dominantlink/internal/trace"
)

// TestQueueMemoryFollowsBacklog: an idle session's queue costs the same
// whatever its QueueSize, because the queue holds only the batches
// actually queued rather than QueueSize slots.
func TestQueueMemoryFollowsBacklog(t *testing.T) {
	const sessions = 16
	perSession := func(queueSize int) int64 {
		m := New(Config{QueueSize: queueSize})
		ss := make([]*Session, sessions)
		var before, after runtime.MemStats
		runtime.GC() // twice: the second frees sync.Pool victims
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range ss {
			ss[i] = newSession(m, fmt.Sprint("p", i), m.cfg.Window)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(ss)
		return (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions
	}
	small, big := perSession(4096), perSession(1<<18)
	t.Logf("heap per idle session: %d B at QueueSize 4096, %d B at 1<<18", small, big)
	if d := big - small; d >= 4<<10 || d <= -4<<10 {
		t.Fatalf("heap per session differs by %d B between QueueSize 4096 and 1<<18, want < 4 KiB", d)
	}
}

// readAll pulls src to its end through NextBatch, as the windower does,
// and returns the observations it got and the terminal error.
func readAll(src trace.BatchSource) ([]trace.Observation, error) {
	var got []trace.Observation
	for {
		dst := trace.NewBatch(0)
		if _, err := src.NextBatch(dst, 0); err != nil {
			return got, err
		}
		got = dst.Observations(got)
	}
}

// TestQueueDrainWakesParkedReader: a reader parked on an empty queue gets
// the backlog offered after it parked, then io.EOF once the session
// drains; with nothing queued, Drain wakes it at once.
func TestQueueDrainWakesParkedReader(t *testing.T) {
	for _, backlog := range []int{0, 3} {
		m := New(Config{})
		s := newSession(m, "p", m.cfg.Window)
		type result struct {
			obs []trace.Observation
			err error
		}
		done := make(chan result, 1)
		go func() {
			obs, err := readAll(&queueSource{q: s.queue})
			done <- result{obs, err}
		}()
		time.Sleep(20 * time.Millisecond) // let the reader park
		var want []trace.Observation
		for i := 0; i < backlog; i++ {
			obs := ingestRows(100*i, 100)
			if n, err := s.Offer(obs); n != len(obs) || err != nil {
				t.Fatalf("Offer = (%d, %v)", n, err)
			}
			want = append(want, obs...)
		}
		s.Drain()
		select {
		case r := <-done:
			if r.err != io.EOF || !reflect.DeepEqual(r.obs, want) {
				t.Fatalf("backlog %d: reader got %d observations and %v, want %d then io.EOF",
					backlog, len(r.obs), r.err, len(want))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("backlog %d: parked reader not woken by Drain", backlog)
		}
	}
}

// TestQueueTwoPushesBeforeWake: batches pushed back to back before a
// parked reader runs all reach readers. One reader gets both. Two readers
// that found the queue empty before the pushes share one wake-up token,
// since the pushes coalesce in the one-slot channel: the pop that leaves
// a batch queued must pass the wake-up on, or the second reader waits
// forever beside a queued batch.
func TestQueueTwoPushesBeforeWake(t *testing.T) {
	// One P: the pushing goroutine runs both pushes before the woken
	// reader is scheduled.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	q := newBatchQueue()
	got := make(chan []trace.Observation, 1)
	go func() {
		obs, _ := readAll(&queueSource{q: q})
		got <- obs
	}()
	time.Sleep(20 * time.Millisecond) // let the reader park
	q.push(trace.BatchOfObservations(ingestRows(0, 5)))
	q.push(trace.BatchOfObservations(ingestRows(5, 7)))
	q.close()
	select {
	case obs := <-got:
		if want := ingestRows(0, 12); !reflect.DeepEqual(obs, want) {
			t.Fatalf("one reader got %d observations, want both batches (%d)", len(obs), len(want))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("one reader: stranded")
	}

	q = newBatchQueue()
	a, b := trace.BatchOfObservations(ingestRows(0, 5)), trace.BatchOfObservations(ingestRows(5, 7))
	q.push(a)
	q.push(b)
	<-q.wake // the first reader wakes on the pushes' one token
	if p := q.tryPop(); p != a {
		t.Fatal("first pop is not the oldest batch")
	}
	select {
	case <-q.wake: // the second reader wakes
	default:
		t.Fatal("a pop that left a batch queued woke no one: the second reader is stranded")
	}
	if p := q.tryPop(); p != b {
		t.Fatal("second pop is not the second batch")
	}
}
