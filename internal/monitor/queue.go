package monitor

import (
	"io"
	"sync"

	"dominantlink/internal/trace"
)

// batchQueue is a session's ingestion FIFO: the batches actually queued,
// oldest first, with their observation count. An idle session's queue is
// a few words; its memory follows the backlog, and Config.QueueSize bounds
// that backlog in observations (OfferBatch checks obs before it pushes).
//
// Readers park on wake, a one-slot channel that a push fills. A pop that
// leaves batches queued fills it again, so a second parked reader is never
// stranded behind a token the first one took. close closes wake, which
// wakes every parked reader at once; they take the backlog, then see the
// queue closed and empty.
type batchQueue struct {
	mu     sync.Mutex
	items  []*trace.Batch // queued batches from head on
	head   int
	obs    int // observations in items[head:]
	closed bool
	wake   chan struct{}
}

func newBatchQueue() *batchQueue {
	return &batchQueue{wake: make(chan struct{}, 1)}
}

// len returns the number of queued observations.
func (q *batchQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.obs
}

// push appends a non-empty batch. The caller checks the observation bound.
func (q *batchQueue) push(b *trace.Batch) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Reuse the popped prefix before growing.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, b)
	q.obs += b.Len()
	q.signalLocked()
}

// tryPop removes and returns the oldest batch, or nil when none is queued.
func (q *batchQueue) tryPop() *trace.Batch {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.items) {
		return nil
	}
	b := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	q.obs -= b.Len()
	if q.head == len(q.items) {
		// Empty: drop a backing array grown by a burst.
		if cap(q.items) > 64 {
			q.items = nil
		}
		q.items, q.head = q.items[:0], 0
	} else {
		q.signalLocked() // pass the wake-up on
	}
	return b
}

// pop removes and returns the oldest batch, waiting while the queue is
// empty and open. It returns nil once the queue is closed and empty.
func (q *batchQueue) pop() *trace.Batch {
	for {
		if b := q.tryPop(); b != nil {
			return b
		}
		q.mu.Lock()
		closed := q.closed && q.head == len(q.items)
		q.mu.Unlock()
		if closed {
			return nil
		}
		<-q.wake
	}
}

// close marks the end of input and wakes every parked reader. Idempotent.
func (q *batchQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.wake)
	}
}

func (q *batchQueue) signalLocked() {
	if q.closed {
		return
	}
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// queueSource adapts the ingestion queue into a trace.BatchSource.
// NextBatch blocks until a batch arrives or the queue is closed — which is
// exactly the shape the Windower's context-aware reader expects: the read
// unblocks the moment the session drains — then opportunistically drains
// whatever else is already queued, up to max. A batch too big for max
// parks in cur and feeds later calls; a batch copied out whole goes back
// to the ingest pool.
type queueSource struct {
	q   *batchQueue
	cur *trace.Batch // partially consumed batch, [i, Len) still pending
	i   int
}

// take appends up to max observations of b to dst, parking the rest in cur.
func (q *queueSource) take(dst, b *trace.Batch, max int) int {
	if n := b.Len(); n <= max {
		dst.AppendBatch(b)
		trace.PutBatch(b)
		return n
	}
	dst.AppendBatch(b.Slice(0, max))
	q.cur, q.i = b, max
	return max
}

func (q *queueSource) Next() (trace.Observation, error) {
	for q.cur == nil || q.i >= q.cur.Len() {
		if q.cur != nil {
			trace.PutBatch(q.cur)
			q.cur = nil
		}
		b := q.q.pop()
		if b == nil {
			return trace.Observation{}, io.EOF
		}
		q.cur, q.i = b, 0
	}
	o := q.cur.At(q.i)
	q.i++
	return o, nil
}

func (q *queueSource) NextBatch(dst *trace.Batch, max int) (int, error) {
	if max <= 0 {
		max = 1 << 20
	}
	n := 0
	if q.cur != nil {
		take := min(q.cur.Len()-q.i, max)
		dst.AppendBatch(q.cur.Slice(q.i, q.i+take))
		q.i += take
		n += take
		if q.i < q.cur.Len() {
			return n, nil
		}
		trace.PutBatch(q.cur)
		q.cur = nil
	}
	if n == 0 { // block only when nothing was appended yet
		b := q.q.pop()
		if b == nil {
			return 0, io.EOF
		}
		n += q.take(dst, b, max)
	}
	for n < max && q.cur == nil {
		b := q.q.tryPop()
		if b == nil {
			break // the terminal io.EOF, if closed, comes from a later call
		}
		n += q.take(dst, b, max-n)
	}
	return n, nil
}
