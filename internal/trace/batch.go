package trace

import (
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Batch is a columnar (struct-of-arrays) block of probe observations: the
// seq, send-time and delay columns live in separate slices and losses in a
// bitmap, so the streaming pipeline can move thousands of observations with
// three slice copies and a handful of word operations instead of one
// 32-byte struct per probe. A Batch also maintains its loss count
// incrementally, so LossCount is O(1) however large the block.
//
// Batches come in two flavors. A root batch (NewBatch,
// BatchOfObservations) owns its columns and supports Append*. A view
// (Slice) shares the root's columns read-only: creating one costs a few
// slice headers and a popcount, never a data copy. Views stay valid while
// the root only appends — the windower's ring buffer relies on exactly
// that: in-flight window identifications read views of a chunk the
// producer is still appending to. To make the shared boundary word of the
// loss bitmap safe under the race detector, lost bits are set with atomic
// Or and read with atomic loads; the delivered-probe columns never overlap
// (views read indexes the producer no longer writes).
//
// Mutating methods are single-goroutine (the producer); accessors are safe
// to call concurrently with producer appends, which is precisely the
// "many readers of a frozen prefix, one appender past it" shape of the
// data plane.
type Batch struct {
	seq      []int64
	sendTime []float64
	delay    []float64
	lost     []uint64 // bitmap; element i of the batch is bit off+i
	off      int      // bit offset of element 0 (non-zero only for views)
	losses   int
	view     bool
}

// NewBatch returns an empty root batch with room for capacity
// observations.
func NewBatch(capacity int) *Batch {
	if capacity < 0 {
		capacity = 0
	}
	return &Batch{
		seq:      make([]int64, 0, capacity),
		sendTime: make([]float64, 0, capacity),
		delay:    make([]float64, 0, capacity),
		lost:     make([]uint64, 0, (capacity+63)/64),
	}
}

// BatchOfObservations converts a row-major observation slice into a fresh
// root batch.
func BatchOfObservations(obs []Observation) *Batch {
	b := NewBatch(len(obs))
	b.AppendObservations(obs)
	return b
}

// Len returns the number of observations in the batch.
func (b *Batch) Len() int { return len(b.seq) }

// Cap returns the observation capacity of the underlying columns.
func (b *Batch) Cap() int { return cap(b.seq) }

// LossCount returns the number of lost probes; O(1), maintained
// incrementally by appends (and computed once, at view creation, for
// slices).
func (b *Batch) LossCount() int { return b.losses }

// LossRate returns the fraction of probes lost.
func (b *Batch) LossRate() float64 {
	if len(b.seq) == 0 {
		return 0
	}
	return float64(b.losses) / float64(len(b.seq))
}

// Seq returns the sequence number of observation i.
func (b *Batch) Seq(i int) int64 { return b.seq[i] }

// SendTime returns the send time of observation i, seconds.
func (b *Batch) SendTime(i int) float64 { return b.sendTime[i] }

// Delay returns the one-way delay of observation i, seconds; undefined
// (zero by construction) when the probe was lost.
func (b *Batch) Delay(i int) float64 { return b.delay[i] }

// Lost reports whether observation i was lost.
func (b *Batch) Lost(i int) bool {
	if i < 0 || i >= len(b.seq) {
		panic("trace: Batch.Lost index out of range")
	}
	bit := b.off + i
	return atomic.LoadUint64(&b.lost[bit>>6])&(1<<(bit&63)) != 0
}

// At returns observation i as a row struct.
func (b *Batch) At(i int) Observation {
	o := Observation{Seq: b.seq[i], SendTime: b.sendTime[i], Lost: b.Lost(i)}
	if !o.Lost {
		o.Delay = b.delay[i]
	}
	return o
}

// setLostTail marks the batch's last observation lost. The batch has a
// single appender, so an atomic load+store pair is a race-free Or:
// concurrent view readers of the same boundary word observe either value
// of the new bit, never a torn word.
func (b *Batch) setLostTail() {
	bit := b.off + len(b.seq) - 1
	w := &b.lost[bit>>6]
	atomic.StoreUint64(w, atomic.LoadUint64(w)|1<<(bit&63))
	b.losses++
}

// growLost ensures the bitmap covers one more element, appending a zero
// word at each 64-element boundary.
func (b *Batch) growLost() {
	if need := (b.off + len(b.seq) + 63) / 64; need > len(b.lost) {
		b.lost = append(b.lost, 0)
	}
}

// Append adds one observation to a root batch. Appending to a view
// panics: views are read-only windows into another batch's columns.
func (b *Batch) Append(o Observation) {
	if b.view {
		panic("trace: append to a Batch view")
	}
	b.seq = append(b.seq, o.Seq)
	b.sendTime = append(b.sendTime, o.SendTime)
	if o.Lost {
		b.delay = append(b.delay, 0)
	} else {
		b.delay = append(b.delay, o.Delay)
	}
	b.growLost()
	if o.Lost {
		b.setLostTail()
	}
}

// AppendObservations bulk-appends a row-major observation slice.
func (b *Batch) AppendObservations(obs []Observation) {
	for i := range obs {
		b.Append(obs[i])
	}
}

// AppendBatch appends the contents of src (root or view). Columns move
// with copy; loss bits are re-set one by one (losses are sparse).
func (b *Batch) AppendBatch(src *Batch) {
	if b.view {
		panic("trace: append to a Batch view")
	}
	n := src.Len()
	if n == 0 {
		return
	}
	b.seq = append(b.seq, src.seq...)
	b.sendTime = append(b.sendTime, src.sendTime...)
	b.delay = append(b.delay, src.delay...)
	base := len(b.seq) - n
	need := (b.off + len(b.seq) + 63) / 64
	for len(b.lost) < need {
		b.lost = append(b.lost, 0)
	}
	if src.losses > 0 {
		for i := 0; i < n; i++ {
			if src.Lost(i) {
				bit := b.off + base + i
				w := &b.lost[bit>>6]
				atomic.StoreUint64(w, atomic.LoadUint64(w)|1<<(bit&63))
			}
		}
		b.losses += src.losses
	}
}

// Reset truncates a root batch to zero observations, keeping the column
// capacity and zeroing the used bitmap words so the next fill starts from
// clean bits. Reset must not be called while views of the batch are live.
func (b *Batch) Reset() {
	if b.view {
		panic("trace: reset of a Batch view")
	}
	used := (b.off + len(b.seq) + 63) / 64
	for i := 0; i < used && i < len(b.lost); i++ {
		b.lost[i] = 0
	}
	b.seq = b.seq[:0]
	b.sendTime = b.sendTime[:0]
	b.delay = b.delay[:0]
	b.lost = b.lost[:0]
	b.losses = 0
}

// maxPooledBatch is the largest capacity, in observations, PutBatch keeps.
const maxPooledBatch = 4096

var batchPool = sync.Pool{New: func() any { return NewBatch(0) }}

// GetBatch returns an empty root batch, reusing one handed back by
// PutBatch when it can.
func GetBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.Reset()
	return b
}

// PutBatch hands back a batch that nothing references any more, for
// GetBatch to reuse. A view, which shares another batch's columns, and a
// batch of more than 4096 observations' capacity are left to the GC.
func PutBatch(b *Batch) {
	if !b.view && b.Cap() <= maxPooledBatch {
		batchPool.Put(b)
	}
}

// Slice returns a read-only view of observations [from, to). The view
// shares the batch's columns — no data is copied — and stays valid while
// the underlying root batch only appends. Its loss count is computed once
// here (a popcount over the covered bitmap words).
func (b *Batch) Slice(from, to int) *Batch {
	if from < 0 || to > len(b.seq) || from > to {
		panic("trace: Batch.Slice range out of bounds")
	}
	v := &Batch{
		seq:      b.seq[from:to:to],
		sendTime: b.sendTime[from:to:to],
		delay:    b.delay[from:to:to],
		lost:     b.lost,
		off:      b.off + from,
		view:     true,
	}
	v.losses = b.countLosses(from, to)
	return v
}

// LossCountRange popcounts the lost probes with index in [from, to) — the
// per-block loss counts of the stationarity gate, O(words) instead of a
// scan.
func (b *Batch) LossCountRange(from, to int) int {
	if from < 0 || to > len(b.seq) || from > to {
		panic("trace: Batch.LossCountRange range out of bounds")
	}
	return b.countLosses(from, to)
}

// AppendDelivered appends the one-way delays of the delivered probes, in
// trace order, to dst and returns the extended slice. A loss-free batch
// degenerates to one bulk copy of the delay column.
func (b *Batch) AppendDelivered(dst []float64) []float64 {
	if b.losses == 0 {
		return append(dst, b.delay...)
	}
	for i := range b.delay {
		if !b.Lost(i) {
			dst = append(dst, b.delay[i])
		}
	}
	return dst
}

// countLosses popcounts the loss bits of [from, to).
func (b *Batch) countLosses(from, to int) int {
	if from >= to {
		return 0
	}
	lo, hi := b.off+from, b.off+to // bit range [lo, hi)
	n := 0
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		word := atomic.LoadUint64(&b.lost[w])
		if w == lo>>6 {
			word &= ^uint64(0) << (lo & 63)
		}
		if w == (hi-1)>>6 && hi&63 != 0 {
			word &= ^uint64(0) >> (64 - hi&63)
		}
		n += bits.OnesCount64(word)
	}
	return n
}

// Observations appends the batch's contents to dst as row structs and
// returns the extended slice (pass nil to materialize fresh).
func (b *Batch) Observations(dst []Observation) []Observation {
	if cap(dst)-len(dst) < len(b.seq) {
		grown := make([]Observation, len(dst), len(dst)+len(b.seq))
		copy(grown, dst)
		dst = grown
	}
	for i := range b.seq {
		dst = append(dst, b.At(i))
	}
	return dst
}

// Trace materializes the batch into a row-major Trace, carrying the
// batch's O(1) loss count into the trace's cache.
func (b *Batch) Trace() *Trace {
	t := &Trace{Observations: b.Observations(nil)}
	t.SetLossCount(b.losses)
	return t
}

// BatchSource is the batch-pull fast path of ObservationSource: sources
// that produce observations in blocks (an in-memory slice, a CSV decoder,
// the monitor's ingestion queue, a live simulation) implement it so the
// windower can move whole columns per channel operation instead of one
// struct per probe. Next and NextBatch share one cursor; callers may mix
// them, though the pipeline only ever uses one.
type BatchSource interface {
	ObservationSource
	// NextBatch appends up to max observations to dst (max <= 0 means the
	// source's natural chunk) and returns how many were appended. A call
	// that appends at least one observation returns a nil error; the
	// terminal io.EOF — or a real failure — is returned by a later call
	// once no observations remain to deliver before it. Blocking sources
	// return what is promptly available rather than waiting to fill max.
	NextBatch(dst *Batch, max int) (int, error)
}

// AsBatchSource returns src itself when it already implements BatchSource,
// else an adapter whose NextBatch pulls one observation per call — the
// exact blocking behaviour of the legacy interface, so wrapping never
// introduces batching latency on a live source.
func AsBatchSource(src ObservationSource) BatchSource {
	if bs, ok := src.(BatchSource); ok {
		return bs
	}
	return &batchAdapter{src: src}
}

type batchAdapter struct{ src ObservationSource }

func (a *batchAdapter) Next() (Observation, error) { return a.src.Next() }

func (a *batchAdapter) NextBatch(dst *Batch, max int) (int, error) {
	o, err := a.src.Next()
	if err != nil {
		return 0, err
	}
	dst.Append(o)
	return 1, nil
}

// NextBatch implements BatchSource by bulk-appending the remaining slice
// (capped at max): the whole source drains in one call.
func (s *SliceSource) NextBatch(dst *Batch, max int) (int, error) {
	rest := s.obs[s.i:]
	if len(rest) == 0 {
		return 0, io.EOF
	}
	if max > 0 && len(rest) > max {
		rest = rest[:max]
	}
	dst.AppendObservations(rest)
	s.i += len(rest)
	return len(rest), nil
}
