package serve

import (
	"encoding/json"

	"maest/internal/engine"
	"maest/internal/obs"
	"maest/internal/store"
)

// The write-behind tier between the in-memory LRUs and the persistent
// store.  Reads are synchronous (an LRU miss probes the store before
// paying for compile+execute, and a store hit hydrates the LRU);
// writes are asynchronous: the request path enqueues the computed
// value and the queue's writer goroutine does the JSON marshal and
// disk append off the latency path.
var storeQueueMetrics = queueMetrics{
	writes: obs.DefCounter("maest_store_writebehind_writes_total", "results persisted by the write-behind tier"),
	errs:   obs.DefCounter("maest_store_writebehind_errors_total", "write-behind persists that failed"),
	drops:  obs.DefCounter("maest_store_writebehind_dropped_total", "write-behind persists dropped because the queue was full"),
	depth:  obs.DefGauge("maest_store_writebehind_queue", "write-behind queue depth"),
}

// PlanMeta is the compiled-plan metadata persisted under a plan's
// content address (store.NSPlanMeta).  It records what the service
// compiled — which module, against which process, and how big — for
// the maest-store inspection CLI and capacity planning.  It is
// deliberately not a serialized Plan: recompiling needs the netlist
// source, which every request carries anyway; what a restart cannot
// recover for free is the history of what was compiled.
type PlanMeta struct {
	Module  string `json:"module"`
	Process string `json:"process"`
	Devices int    `json:"devices"`
	Nets    int    `json:"nets"`
	Ports   int    `json:"ports"`
}

// storeWrite is one queued persist.  The value is kept as its in-memory
// shape; the writer goroutine marshals it so the request path never
// pays for JSON encoding.
type storeWrite struct {
	ns  store.Namespace
	key store.Key
	val any
}

// storeTier wraps an open store with the write-behind queue.  A nil
// *storeTier is a well-defined disabled tier: lookups miss, persists
// are dropped — the same idiom as the nil LRU caches.
type storeTier struct {
	st *store.Store
	q  *writeBehind[storeWrite]
}

// newStoreTier starts the write-behind queue over an open store.
func newStoreTier(st *store.Store) *storeTier {
	t := &storeTier{st: st}
	t.q = newWriteBehind(storeQueueMetrics, t.persist)
	return t
}

// persist marshals one queued value and appends it to the store.
func (t *storeTier) persist(w *storeWrite) error {
	b, err := json.Marshal(w.val)
	if err != nil {
		return err
	}
	return t.st.Put(w.ns, w.key, b)
}

// enqueue persists one value under ns/key, write-behind.
func (t *storeTier) enqueue(ns store.Namespace, key Key, val any) {
	if t == nil {
		return
	}
	t.q.enqueue(storeWrite{ns: ns, key: store.Key(key), val: val})
}

// flush stops intake and blocks until every queued persist has reached
// the store.  Call before closing the store; safe to call more than
// once.
func (t *storeTier) flush() {
	if t == nil {
		return
	}
	t.q.flush()
}

// storeGet probes the store for a value persisted under ns/key.  A hit
// decodes back to the exact value the original computation produced:
// Go's float64 JSON round trip is exact (shortest-representation
// encode, exact parse), so the re-encoded response is byte-identical
// to a fresh computation's — the differential test enforces it.  A
// store error and an undecodable payload (a schema from a future
// version, say) degrade to a miss: the service recomputes and
// overwrites.
func storeGet[V any](t *storeTier, ns store.Namespace, key Key) (*V, bool) {
	if t == nil {
		return nil, false
	}
	b, ok, err := t.st.Get(ns, store.Key(key))
	if err != nil || !ok {
		return nil, false
	}
	v := new(V)
	if json.Unmarshal(b, v) != nil {
		return nil, false
	}
	return v, true
}

// putPlanMeta persists one compiled plan's metadata, write-behind.
func (t *storeTier) putPlanMeta(key Key, pl *engine.Plan) {
	if t == nil {
		return
	}
	stats := pl.Stats()
	t.enqueue(store.NSPlanMeta, key, &PlanMeta{
		Module:  stats.CircuitName,
		Process: pl.Process().Name,
		Devices: stats.N,
		Nets:    stats.H,
		Ports:   stats.NumPorts,
	})
}

// stats snapshots the underlying store (ok=false when disabled).
func (t *storeTier) stats() (store.Stats, bool) {
	if t == nil {
		return store.Stats{}, false
	}
	return t.st.Stats(), true
}

// tier is one namespace's read-through cache: an LRU over the
// persistent store.  It is the only place that decides where a result
// or congestion answer lives — memory first, then disk, and every disk
// hit refills memory so the next repeat is a memory hit.  Each
// namespace has its own LRU so their hit ratios and capacities stay
// independent.
type tier[V any] struct {
	lru   *lru[*V]
	ns    store.Namespace
	store *storeTier
}

// get probes the LRU, then the store, recording the cache disposition
// and the "cache" (and, with a store mounted, "store") stage on info.
// A store hit is a cache hit as far as the client is concerned: the
// answer is the persisted computation, byte-identical to a fresh one.
// fromStore tells the caller the hit came from disk.
func (t *tier[V]) get(key Key, info *reqInfo) (v *V, ok, fromStore bool) {
	if v, ok = t.lru.Get(key); ok {
		info.setCacheHit(true)
		info.mark("cache")
		return v, true, false
	}
	info.mark("cache")
	if t.store == nil {
		return nil, false, false
	}
	if v, ok = storeGet[V](t.store, t.ns, key); ok {
		t.lru.Put(key, v)
		info.setCacheHit(true)
		info.setStoreHit(true)
	}
	info.mark("store")
	return v, ok, ok
}

// put caches a computed value and persists it, write-behind.
func (t *tier[V]) put(key Key, v *V) {
	t.lru.Put(key, v)
	t.store.enqueue(t.ns, key, v)
}
