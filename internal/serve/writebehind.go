package serve

import (
	"sync"
	"sync/atomic"

	"maest/internal/obs"
)

// writeBehindCap bounds one queue's pending persists; beyond it,
// items are dropped (counted) rather than blocking the request path.
const writeBehindCap = 4096

// queueMetrics is the process-wide counter set one write-behind queue
// reports to.
type queueMetrics struct {
	writes, errs, drops *obs.Counter
	depth               *obs.Gauge
}

// writeBehind is the one write-behind queue the serving layer uses to
// move persistence off the latency path: request handlers enqueue, a
// single writer goroutine persists.  Everything it carries is
// recomputable (results, job records, sampled traces), so an item
// dropped under backpressure or after shutdown began costs a future
// recompute or some history, never correctness.
//
// The queue is a plain slice under a condition variable rather than a
// channel: flush-to-empty must be repeatable (sync settles the queue
// mid-run and intake continues), and a closed channel only flushes
// once.  A nil *writeBehind is a disabled queue: every method is a
// no-op.
type writeBehind[T any] struct {
	persist func(*T) error
	metrics queueMetrics

	mu      sync.Mutex
	cond    sync.Cond
	queue   []T
	closed  bool
	writing bool // writer holds a drained batch not yet persisted
	wg      sync.WaitGroup

	writes atomic.Int64
	errs   atomic.Int64
	drops  atomic.Int64
}

// newWriteBehind starts the writer goroutine; persist is called on it,
// one item at a time, in enqueue order.
func newWriteBehind[T any](metrics queueMetrics, persist func(*T) error) *writeBehind[T] {
	q := &writeBehind[T]{persist: persist, metrics: metrics}
	q.cond.L = &q.mu
	q.wg.Add(1)
	go q.writer()
	return q
}

func (q *writeBehind[T]) writer() {
	defer q.wg.Done()
	q.mu.Lock()
	for {
		for len(q.queue) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.queue) == 0 {
			q.mu.Unlock()
			return
		}
		batch := q.queue
		q.queue = nil
		q.writing = true
		q.metrics.depth.Set(0)
		q.mu.Unlock()

		for i := range batch {
			if err := q.persist(&batch[i]); err != nil {
				q.errs.Add(1)
				q.metrics.errs.Inc()
				continue
			}
			q.writes.Add(1)
			q.metrics.writes.Inc()
		}

		q.mu.Lock()
		q.writing = false
		q.cond.Broadcast() // wake sync() waiters
	}
}

// enqueue hands one item to the writer, dropping it (with a counter)
// when the queue is full or flushed — the request path never blocks
// on the disk.
func (q *writeBehind[T]) enqueue(v T) {
	if q == nil {
		return
	}
	q.mu.Lock()
	if q.closed || len(q.queue) >= writeBehindCap {
		q.mu.Unlock()
		q.drops.Add(1)
		q.metrics.drops.Inc()
		return
	}
	q.queue = append(q.queue, v)
	q.metrics.depth.Set(float64(len(q.queue)))
	q.mu.Unlock()
	q.cond.Signal()
}

// sync blocks until every item enqueued so far has been persisted,
// without stopping intake — the deterministic settling point tests and
// the restart e2e use before asserting on store contents.
func (q *writeBehind[T]) sync() {
	if q == nil {
		return
	}
	q.mu.Lock()
	for len(q.queue) > 0 || q.writing {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// flush stops intake and blocks until the queue has drained and the
// writer goroutine has exited.  Call before closing the store; safe to
// call more than once.
func (q *writeBehind[T]) flush() {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
	q.wg.Wait()
}
