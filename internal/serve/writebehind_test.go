package serve

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"maest/internal/obs"
)

// liveWriters counts writeBehind writer goroutines in the process.
func liveWriters() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "(*writeBehind[...]).writer(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestWriteBehindContract pins the queue every persistent tier shares:
// concurrent producers interleaved with sync, then flush.  Every item
// is accounted for as a write, an error, or a drop; sync returns only
// after everything enqueued before it is persisted; flush closes
// intake for good and joins the writer goroutine.
func TestWriteBehindContract(t *testing.T) {
	reg := obs.NewRegistry()
	m := queueMetrics{
		writes: reg.Counter("test_writes_total", ""),
		errs:   reg.Counter("test_errors_total", ""),
		drops:  reg.Counter("test_dropped_total", ""),
		depth:  reg.Gauge("test_queue", ""),
	}
	var mu sync.Mutex
	persisted := map[int]bool{}
	errSeventh := errors.New("every seventh item fails")
	gate := make(chan struct{})

	writers0 := liveWriters()
	q := newWriteBehind(m, func(v *int) error {
		<-gate
		mu.Lock()
		defer mu.Unlock()
		persisted[*v] = true
		if *v%7 == 0 {
			return errSeventh
		}
		return nil
	})
	if got := liveWriters(); got != writers0+1 {
		t.Fatalf("%d writer goroutines after start, want %d", got, writers0+1)
	}

	// Backpressure: with the writer stuck on one batch (at most
	// writeBehindCap items), the queue takes at most writeBehindCap
	// more, so one item beyond twice the cap must drop.
	const flood = 2*writeBehindCap + 1
	for i := 0; i < flood; i++ {
		q.enqueue(1_000_000 + i)
	}
	close(gate)
	q.sync()
	drops := q.drops.Load()
	if drops == 0 {
		t.Fatal("a full queue dropped nothing")
	}

	// Concurrent producers interleaved with sync: fewer items than the
	// cap, so nothing drops and each sync sees the producer's items.
	const producers, perProducer = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := p*perProducer + i
				q.enqueue(v)
				if i%50 == 49 {
					q.sync()
					mu.Lock()
					for j := v - 49; j <= v; j++ {
						if !persisted[j] {
							t.Errorf("item %d not persisted when sync returned", j)
						}
					}
					mu.Unlock()
				}
			}
		}(p)
	}
	wg.Wait()
	q.sync()
	q.sync() // repeatable

	total := int64(flood + producers*perProducer)
	accounted := func() int64 { return q.writes.Load() + q.errs.Load() + q.drops.Load() }
	if got := accounted(); got != total || q.drops.Load() != drops {
		t.Fatalf("writes %d + errors %d + drops %d = %d, want %d with %d drops",
			q.writes.Load(), q.errs.Load(), q.drops.Load(), got, total, drops)
	}
	if q.errs.Load() == 0 || int64(m.errs.Value()) != q.errs.Load() ||
		int64(m.writes.Value()) != q.writes.Load() || int64(m.drops.Value()) != drops {
		t.Fatalf("metric counters disagree with the queue's own: writes %v/%d errors %v/%d drops %v/%d",
			m.writes.Value(), q.writes.Load(), m.errs.Value(), q.errs.Load(), m.drops.Value(), drops)
	}

	q.flush()
	if got := liveWriters(); got != writers0 {
		t.Fatalf("%d writer goroutines after flush, want %d", got, writers0)
	}
	q.enqueue(-1)
	if q.drops.Load() != drops+1 || int64(m.drops.Value()) != drops+1 {
		t.Fatalf("enqueue after flush not dropped: drops %d -> %d", drops, q.drops.Load())
	}
	q.flush() // idempotent
	q.sync()
	mu.Lock()
	late := persisted[-1]
	mu.Unlock()
	if late || accounted() != total+1 {
		t.Fatalf("after flush: late item persisted=%v, accounted %d, want %d", late, accounted(), total+1)
	}

	var nilQ *writeBehind[int]
	nilQ.enqueue(1)
	nilQ.sync()
	nilQ.flush()
	nilQ.flush()
}
