package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"maest/internal/congest"
	"maest/internal/core"
	"maest/internal/engine"
	"maest/internal/engine/distmemo"
	"maest/internal/netlist"
	"maest/internal/obs"
	"maest/internal/serve"
	"maest/internal/store"
	"maest/internal/tech"
)

// Per-layer metrics of the traced run.  Layers are measured from
// outside: each traced request's own inputs are replayed through the
// layer's public functions in the order the handler calls them, and
// each call is timed.  A layer a workload never reaches reports 0.

// perLayer names every per-layer metric with its unit and direction,
// in print order.
var perLayer = []struct{ name, unit, better string }{
	{"serve.decode_us", "us", "lower"},
	{"hdl.parse_us", "us", "lower"},
	{"serve.key_us", "us", "lower"},
	{"serve.encode_us", "us", "lower"},
	{"serve.request_kb", "KiB", "lower"},
	{"serve.response_kb", "KiB", "lower"},
	{"serve.hit_overhead_share", "ratio", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.congest_cache_hit_ratio", "ratio", "higher"},
	{"serve.plan_cache_hit_ratio", "ratio", "higher"},
	{"serve.store_hit_ratio", "ratio", "higher"},
	{"client.transport_us", "us", "lower"},
	{"client.error_rate", "ratio", "lower"},
	{"client.rejected_429", "count", "lower"},
	{"engine.compile_us", "us", "lower"},
	{"netlist.gather_us", "us", "lower"},
	{"tech.append_us", "us", "lower"},
	{"engine.plan_hash_us", "us", "lower"},
	{"engine.gather_share", "ratio", "higher"},
	{"engine.estimate_us", "us", "lower"},
	{"engine.congestion_us", "us", "lower"},
	{"engine.delta_us", "us", "lower"},
	{"engine.delta_compile_ratio", "ratio", "lower"},
	{"engine.distmemo.span_hit_ratio", "ratio", "higher"},
	{"engine.distmemo.shape_hit_ratio", "ratio", "higher"},
	{"engine.distmemo.feed_hit_ratio", "ratio", "higher"},
	{"engine.alloc_bytes_per_compile", "bytes", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.writebehind_drop_ratio", "ratio", "lower"},
	{"store.bytes_per_record", "bytes", "lower"},
	{"floorplan.candidates_ms", "ms", "lower"},
	{"floorplan.greedy_ms", "ms", "lower"},
	{"floorplan.move_us_p50", "us", "lower"},
	{"floorplan.move_us_p99", "us", "lower"},
	{"floorplan.evals_per_move", "count", "lower"},
	{"floorplan.rout_memo_hit_ratio", "ratio", "higher"},
	{"floorplan.rout_lookup_us", "us", "lower"},
	{"floorplan.alloc_bytes_per_move", "bytes", "lower"},
	{"floorplan.plan_ms_p50", "ms", "lower"},
	{"floorplan.anneal_cost_ratio", "ratio", "lower"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower"},
	{"runtime.gc_cycles_per_kop", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.flight_share_gap", "ratio", "lower"},
}

// served is what the handler did for one call, read from the call's
// flight-recorder record: which tier answered, and whether it compiled
// a plan (an engine "compile" span under the request) or found one in
// its plan cache.
type served struct {
	lruHit, storeHit bool
	compiles         int
}

func servedOf(rec obs.FlightRecord) served {
	sv := served{lruHit: rec.CacheHit && !rec.StoreHit, storeHit: rec.StoreHit}
	for _, sp := range rec.Spans {
		if sp.Name == "compile" {
			sv.compiles++
		}
	}
	return sv
}

// flown is a traced request with the flight records of its calls, in
// call order.
type flown struct {
	traced
	recs []obs.FlightRecord
}

// inFlight answers the successful traced requests whose every call
// (calls(q) of them) is still in the server's flight ring, newest
// first.  Only these are replayed: their records tell the replay which
// path the handler took.
func inFlight(t *tracer, fr *serve.FlightResponse, calls func(traced) int) []flown {
	byTrace := map[string][]obs.FlightRecord{}
	for _, rec := range fr.Requests {
		byTrace[rec.Trace] = append(byTrace[rec.Trace], rec)
	}
	var out []flown
	for i := len(t.reqs) - 1; i >= 0; i-- {
		q := t.reqs[i]
		recs := byTrace[q.trace]
		if q.err != nil || len(recs) != calls(q) {
			continue
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].Seq < recs[b].Seq })
		out = append(out, flown{q, recs})
	}
	return out
}

// distmemoCounts snapshots the distribution memo's counters.
type distmemoCounts struct{ spanH, spanM, shapeH, shapeM, feedH, feedM int64 }

func readDistmemo() distmemoCounts {
	shH, shM, _, spH, spM, _ := distmemo.Metrics()
	fH, fM, _ := distmemo.FeedMetrics()
	return distmemoCounts{spanH: spH, spanM: spM, shapeH: shH, shapeM: shM, feedH: fH, feedM: fM}
}

func (a distmemoCounts) ratios(b distmemoCounts, m map[string]float64) {
	m["engine.distmemo.span_hit_ratio"] = ratio(float64(b.spanH-a.spanH), float64(b.spanH-a.spanH+b.spanM-a.spanM))
	m["engine.distmemo.shape_hit_ratio"] = ratio(float64(b.shapeH-a.shapeH), float64(b.shapeH-a.shapeH+b.shapeM-a.shapeM))
	m["engine.distmemo.feed_hit_ratio"] = ratio(float64(b.feedH-a.feedH), float64(b.feedH-a.feedH+b.feedM-a.feedM))
}

// serverCounts snapshots the server-side counters of a window.
type serverCounts struct {
	metrics map[string]float64
	store   store.Stats
}

func readServer(ctx context.Context, s *server) (serverCounts, error) {
	m, err := s.counters(ctx)
	if err != nil {
		return serverCounts{}, err
	}
	st, _ := s.handler.StoreStats()
	return serverCounts{metrics: m, store: st}, nil
}

func (a serverCounts) ratios(b serverCounts, m map[string]float64) {
	hit := func(prefix string) float64 {
		h := b.metrics[prefix+"_hits_total"] - a.metrics[prefix+"_hits_total"]
		ms := b.metrics[prefix+"_misses_total"] - a.metrics[prefix+"_misses_total"]
		return ratio(h, h+ms)
	}
	m["serve.cache_hit_ratio"] = hit("maest_serve_cache")
	m["serve.congest_cache_hit_ratio"] = hit("maest_serve_congest_cache")
	m["serve.plan_cache_hit_ratio"] = hit("maest_serve_plan_cache")
	h, ms := b.store.Hits-a.store.Hits, b.store.Misses-a.store.Misses
	m["serve.store_hit_ratio"] = ratio(float64(h), float64(h+ms))
	drops := b.metrics["maest_store_writebehind_dropped_total"] - a.metrics["maest_store_writebehind_dropped_total"]
	writes := b.metrics["maest_store_writebehind_writes_total"] - a.metrics["maest_store_writebehind_writes_total"]
	m["store.writebehind_drop_ratio"] = ratio(drops, drops+writes)
	m["store.bytes_per_record"] = ratio(float64(b.store.Bytes), float64(b.store.Records))
}

// transport times GET /healthz round trips on the serving client: the
// floor under every request.
func transport(ctx context.Context, s *server) float64 {
	var d []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := s.cli.Health(ctx); err == nil {
			d = append(d, us(time.Since(t0)))
		}
	}
	return Median(d)
}

// replayer replays serving requests layer by layer, down the path
// the handler took for each.
type replayer struct {
	l     *layers
	p     *tech.Process
	st    *store.Store // the server's store, for store.get
	put   *store.Store // a fresh store, for store.put
	ctx   context.Context
	comp  []float64               // bytes allocated per compile
	plans map[string]*engine.Plan // the replay's stand-in for the server's plan cache, by plan key
}

func newReplayer(ctx context.Context, t *tracer, p *tech.Process, st, put *store.Store) *replayer {
	return &replayer{l: newLayers(t), p: p, st: st, put: put, ctx: ctx, plans: map[string]*engine.Plan{}}
}

// stages holds one replayed request's layer times in µs under the
// server's flight-recorder stage names.
type stages map[string]float64

func (r *replayer) decode(body []byte, v any) (float64, error) {
	r.l.note("serve.request_kb", float64(len(body))/1024)
	return r.l.time("serve.decode", func() error {
		return json.NewDecoder(bytes.NewReader(body)).Decode(v)
	})
}

func (r *replayer) encode(resp any) {
	var n int
	r.l.time("serve.encode", func() error {
		b, err := json.Marshal(resp)
		n = len(b)
		return err
	})
	r.l.note("serve.response_kb", float64(n)/1024)
}

func (r *replayer) parse(format, name, text string) (*netlist.Circuit, float64, error) {
	var c *netlist.Circuit
	d, err := r.l.time("hdl.parse", func() (err error) {
		c, err = parseModule(format, name, text, r.p)
		return err
	})
	return c, d, err
}

// compile replays a fresh compile and, as separate calls, its parts:
// the §3 gather, the process serialization every compile pays, and
// the plan hash.
func (r *replayer) compile(c *netlist.Circuit) (*engine.Plan, float64, error) {
	q := r.p.Clone()
	r.l.time("netlist.gather", func() error { _, err := netlist.Gather(c, q); return err })
	r.l.time("tech.append", func() error { tech.Append(nil, r.p.Clone()); return nil })
	r.l.time("engine.plan_hash", func() error { engine.PlanHash(c, r.p); return nil })
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var pl *engine.Plan
	d, err := r.l.time("engine.compile", func() (err error) {
		pl, err = engine.Compile(c, r.p)
		return err
	})
	runtime.ReadMemStats(&m1)
	r.comp = append(r.comp, float64(m1.TotalAlloc-m0.TotalAlloc))
	return pl, d, err
}

// plan answers the plan under key the way the handler got it: compiled
// and timed when the handler compiled it, else from the replay's plan
// cache — compiled untimed if the server had cached it before the
// replayed requests.
func (r *replayer) plan(c *netlist.Circuit, key serve.Key, compiled bool) (*engine.Plan, float64, error) {
	if pl, ok := r.plans[key.String()]; ok && !compiled {
		return pl, 0, nil
	}
	var pl *engine.Plan
	var d float64
	var err error
	if compiled {
		pl, d, err = r.compile(c)
	} else {
		pl, err = engine.Compile(c, r.p)
	}
	if err == nil {
		r.plans[key.String()] = pl
	}
	return pl, d, err
}

// estimate replays one /v1/estimate in handler order: decode → parse →
// key; on an LRU miss the store get, then on a store hit the plan (a
// compile only if the handler compiled), on a miss the plan and the
// estimate; the encode; and on a miss the write-behind store put.
func (r *replayer) estimate(req serve.EstimateRequest, resp *serve.EstimateResponse, sv served) (stages, error) {
	st := stages{}
	body, _ := json.Marshal(req)
	var dec serve.EstimateRequest
	var err error
	if st["decode"], err = r.decode(body, &dec); err != nil {
		return nil, err
	}
	var c *netlist.Circuit
	if c, st["parse"], err = r.parse(dec.Format, dec.Name, dec.Netlist); err != nil {
		return nil, err
	}
	var key, planKey serve.Key
	st["cache"], _ = r.l.time("serve.key", func() error {
		key = serve.CacheKey(c, procName, core.SCOptions{})
		planKey = serve.Key(engine.PlanHash(c, r.p))
		return nil
	})
	var res *core.Result
	if !sv.lruHit {
		st["store"] = r.storeGet(store.NSResult, key)
		if sv.storeHit && sv.compiles > 0 {
			_, st["compile"], err = r.plan(c, planKey, true)
		} else if !sv.storeHit {
			var pl *engine.Plan
			if pl, st["compile"], err = r.plan(c, planKey, sv.compiles > 0); err == nil {
				st["estimate"], err = r.l.time("engine.estimate", func() (err error) { res, err = pl.Estimate(r.ctx); return })
			}
		}
		if err != nil {
			return nil, err
		}
	}
	r.encode(resp)
	if res != nil {
		r.storePut(store.NSResult, key, res)
	}
	return st, nil
}

// congestion replays one /v1/congestion in handler order: decode →
// parse → plan key → plan (the handler resolves it before any cache
// probe) → congestion key; on an LRU miss the store get, on a miss the
// analysis; the encode; and on a miss the store put.
func (r *replayer) congestion(req serve.CongestionRequest, resp *serve.CongestionResponse, sv served) error {
	body, _ := json.Marshal(req)
	var dec serve.CongestionRequest
	if _, err := r.decode(body, &dec); err != nil {
		return err
	}
	c, _, err := r.parse(dec.Format, dec.Name, dec.Netlist)
	if err != nil {
		return err
	}
	var planKey serve.Key
	k1 := r.l.span("serve.key", func() { planKey = serve.Key(engine.PlanHash(c, r.p)) })
	pl, _, err := r.plan(c, planKey, sv.compiles > 0)
	if err != nil {
		return err
	}
	model, _ := congest.ParseModel("")
	rows := pl.InitialRows()
	var key serve.Key
	k2 := r.l.span("serve.key", func() { key = serve.CongestKey(c, procName, rows, false, congest.Options{Model: model}) })
	r.l.note("serve.key", k1+k2)
	var m *congest.Map
	if !sv.lruHit {
		r.storeGet(store.NSCongest, key)
		if !sv.storeHit {
			if _, err := r.l.time("engine.congestion", func() (err error) {
				m, err = pl.Congestion(r.ctx, engine.WithRows(rows), engine.WithCongestModel(model))
				return
			}); err != nil {
				return err
			}
		}
	}
	r.encode(resp)
	if m != nil {
		r.storePut(store.NSCongest, key, m)
	}
	return nil
}

// batch replays one /v1/estimate/batch in handler order: decode, then
// per module parse → key and, for a module the server did not answer
// from cache, the store get and the plan; the estimates of the misses;
// the encode; the store puts.  A module answered from cache is replayed
// as an LRU hit: the server does not say which tier answered a batch
// module.
func (r *replayer) batch(req serve.BatchRequest, resp *serve.BatchResponse, sv served) error {
	body, _ := json.Marshal(req)
	var dec serve.BatchRequest
	if _, err := r.decode(body, &dec); err != nil {
		return err
	}
	type miss struct {
		key serve.Key
		pl  *engine.Plan
		res *core.Result
	}
	var misses []*miss
	for i, m := range dec.Modules {
		c, _, err := r.parse(m.Format, m.Name, m.Netlist)
		if err != nil {
			return err
		}
		var key serve.Key
		r.l.time("serve.key", func() error { key = serve.CacheKey(c, procName, core.SCOptions{}); return nil })
		if i < len(resp.Modules) && resp.Modules[i].CacheHit {
			continue
		}
		r.storeGet(store.NSResult, key)
		var planKey serve.Key
		r.l.time("serve.key", func() error { planKey = serve.Key(engine.PlanHash(c, r.p)); return nil })
		pl, _, err := r.plan(c, planKey, sv.compiles > 0)
		if err != nil {
			return err
		}
		sv.compiles--
		misses = append(misses, &miss{key: key, pl: pl})
	}
	for _, ms := range misses {
		if _, err := r.l.time("engine.estimate", func() (err error) { ms.res, err = ms.pl.Estimate(r.ctx); return }); err != nil {
			return err
		}
	}
	r.encode(resp)
	for _, ms := range misses {
		r.storePut(store.NSResult, ms.key, ms.res)
	}
	return nil
}

// delta replays one /v1/estimate/delta in handler order: decode → the
// parent from the plan cache → Delta → key; on an LRU miss the store
// get, on a miss the estimate of the child; the encode; and on a miss
// the store put.
func (r *replayer) delta(step []engine.Edit, req serve.DeltaRequest, resp *serve.EstimateResponse, sv served) error {
	body, _ := json.Marshal(req)
	var dec serve.DeltaRequest
	if _, err := r.decode(body, &dec); err != nil {
		return err
	}
	parent, ok := r.plans[dec.Parent]
	if !ok {
		return fmt.Errorf("replay: delta parent %s was not replayed", dec.Parent)
	}
	var child *engine.Plan
	if _, err := r.l.time("engine.delta", func() (err error) { child, err = parent.Delta(step...); return }); err != nil {
		return err
	}
	r.plans[serve.Key(child.Hash()).String()] = child
	var key serve.Key
	r.l.time("serve.key", func() error {
		key = serve.CacheKey(child.Circuit(), child.Process().Name, core.SCOptions{Rows: child.DefaultRows()})
		return nil
	})
	var res *core.Result
	if !sv.lruHit {
		r.storeGet(store.NSResult, key)
		if !sv.storeHit {
			if _, err := r.l.time("engine.estimate", func() (err error) {
				res, err = child.Estimate(r.ctx, engine.WithRows(child.DefaultRows()))
				return
			}); err != nil {
				return err
			}
		}
	}
	r.encode(resp)
	if res != nil {
		r.storePut(store.NSResult, key, res)
	}
	return nil
}

// storeGet times a get of the record under key in the server's store.
func (r *replayer) storeGet(ns store.Namespace, key serve.Key) float64 {
	if r.st == nil {
		return 0
	}
	d, _ := r.l.time("store.get", func() error { _, _, err := r.st.Get(ns, store.Key(key)); return err })
	return d
}

// storePut times a put of the write-behind payload of val into a fresh
// store.
func (r *replayer) storePut(ns store.Namespace, key serve.Key, val any) {
	payload, err := json.Marshal(val)
	if err != nil {
		return
	}
	r.l.time("store.put", func() error { return r.put.Put(ns, store.Key(key), payload) })
}

func openPutStore(dir string) (*store.Store, error) {
	return store.Open(store.Options{Dir: filepath.Join(dir, "putstore")})
}

func closeStore(st *store.Store, dir string) {
	st.Close()
	os.RemoveAll(filepath.Join(dir, "putstore"))
}

// engineMetrics fills the engine and serve/hdl layer metrics from the
// replayed calls.
func engineMetrics(l *layers, comp []float64, m map[string]float64) {
	for _, n := range []string{"serve.decode", "hdl.parse", "serve.key", "serve.encode",
		"engine.compile", "netlist.gather", "tech.append", "engine.plan_hash",
		"engine.estimate", "engine.congestion", "engine.delta", "store.put", "store.get"} {
		m[n+"_us"] = l.median(n)
	}
	m["serve.request_kb"] = l.mean("serve.request_kb")
	m["serve.response_kb"] = l.mean("serve.response_kb")
	m["engine.gather_share"] = ratio(m["netlist.gather_us"], m["engine.compile_us"])
	m["engine.delta_compile_ratio"] = ratio(m["engine.delta_us"], m["engine.compile_us"])
	if len(comp) > 0 {
		m["engine.alloc_bytes_per_compile"] = Median(comp)
	}
}
