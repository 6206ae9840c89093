package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"maest/internal/engine"
	"maest/internal/engine/distmemo"
	"maest/internal/serve"
	"maest/internal/tech"
)

// eco-cold: a stream of modules the server has never seen.  Each gets
// an estimate, a congestion analysis and a chain of four delta
// scripts, so every answer misses the LRUs and is appended to the
// store write-behind.

const (
	ecoStrata = 64
	ecoWarm   = 2 * ecoStrata
	// ecoPerWindow is how many stream modules one window may use: about
	// four times what a 10 s window of two clients gets through on two
	// cores.  It is a constant, so set-up and memory do not grow with
	// the program's speed; a window that runs the stream dry ends early
	// and says so.
	ecoPerWindow = 64 * ecoStrata
)

// ecoChain holds one module's answers, in chain order, while the chain
// runs (and for the replay, in the traced window).
type ecoChain struct {
	mod    *ecoModule
	est    *serve.EstimateResponse
	cong   *serve.CongestionResponse
	deltas []*serve.EstimateResponse
}

// ecoRecord is what the check keeps of one answered chain: the module
// and a digest of each answer, so the bookkeeping of a window stays a
// few hundred bytes a chain however many chains it runs.
type ecoRecord struct {
	mod       int
	est, cong *[sha256.Size]byte // nil when not answered
	deltas    []ecoDelta
}

type ecoDelta struct {
	plan string
	sum  [sha256.Size]byte
}

type ecoCold struct {
	seed    int64
	windows int // measured windows per set-up: each gets its own stream
	p       *tech.Process
	mods    []*ecoModule
	srv     *server

	win     int          // windows run since set-up
	next    atomic.Int64 // next stream module of the current window
	dry     atomic.Bool  // the current window ran its stream dry
	mu      sync.Mutex
	records []ecoRecord
}

func newEcoCold(seed int64, windows int) *ecoCold {
	return &ecoCold{seed: seed, windows: windows, p: tech.NMOS25()}
}

// answerSum digests an answer's wire form with cache_hit cleared.
func answerSum(v any) (*[sha256.Size]byte, error) {
	switch a := v.(type) {
	case *serve.EstimateResponse:
		x := *a
		x.CacheHit = false
		v = x
	case *serve.CongestionResponse:
		x := *a
		x.CacheHit = false
		v = x
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(b)
	return &sum, nil
}

// record digests a finished chain for the check.
func (e *ecoCold) record(i int, c *ecoChain) {
	r := ecoRecord{mod: i}
	var err error
	if c.est != nil {
		r.est, err = answerSum(c.est)
	}
	if c.cong != nil && err == nil {
		r.cong, err = answerSum(c.cong)
	}
	for _, d := range c.deltas {
		var sum *[sha256.Size]byte
		if sum, err = answerSum(d); err != nil {
			break
		}
		r.deltas = append(r.deltas, ecoDelta{plan: d.Plan, sum: *sum})
	}
	if err != nil {
		// An answer that cannot be digested cannot be checked.
		r.est, r.cong, r.deltas = &[sha256.Size]byte{}, nil, nil
	}
	e.mu.Lock()
	e.records = append(e.records, r)
	e.mu.Unlock()
}

// setup boots a server on an empty store, runs a disjoint warm-up
// stream through the full chain to warm the distribution memo, and
// generates the measured stream: ecoPerWindow modules per window.
func (e *ecoCold) setup(dir string) error {
	if err := e.close(); err != nil {
		return err
	}
	distmemo.Purge()
	warm, err := genEco(e.seed, streamEcoWarm, ecoWarm, "warm", e.p)
	if err != nil {
		return err
	}
	if e.srv, err = startServer(dir); err != nil {
		return err
	}
	ctx := context.Background()
	var failed atomic.Int64
	parallel(len(warm), func(i int) {
		if err := e.chain(ctx, nil, &ecoChain{mod: warm[i]}); err != nil {
			failed.Add(1)
		}
	})
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("warm-up: %d chains failed", n)
	}
	e.mods, err = genEco(e.seed, streamEco, e.windows*ecoPerWindow, "eco", e.p)
	e.records, e.win = nil, 0
	return err
}

// chain runs one module's requests in order while w (if any) is live,
// filling c with the answers.  It stops at the first failure: later
// deltas name the failed step's plan.
func (e *ecoCold) chain(ctx context.Context, w *worker, c *ecoChain) error {
	call := func(fn func() error) error {
		if w == nil {
			return fn()
		}
		_, _, err := w.call(fn)
		return err
	}
	live := func() bool { return w == nil || w.live() }
	m := c.mod
	if err := call(func() (err error) { c.est, err = e.srv.cli.Estimate(ctx, m.request(false)); return }); err != nil {
		return err
	}
	if !live() {
		return nil
	}
	if err := call(func() (err error) { c.cong, err = e.srv.cli.Congestion(ctx, m.congestion(false)); return }); err != nil {
		return err
	}
	parent := c.est.Plan
	for _, step := range m.script {
		if !live() {
			break
		}
		var d *serve.EstimateResponse
		err := call(func() (err error) {
			d, err = e.srv.cli.EstimateDelta(ctx, serve.DeltaRequest{Parent: parent, Edits: step})
			return
		})
		if err != nil {
			return err
		}
		c.deltas = append(c.deltas, d)
		parent = d.Plan
	}
	return nil
}

// window runs the next window's own slice of the stream.  Only the
// digests of the chains are kept (and, in a traced window, the chains
// themselves, by the tracer).
func (e *ecoCold) window(dur time.Duration, tr *tracer) window {
	lo := e.win * ecoPerWindow
	e.win++
	e.next.Store(int64(lo))
	e.dry.Store(false)
	w := runWindow(serveClients, dur, tr, func(w *worker) {
		i := int(e.next.Add(1) - 1)
		if i >= lo+ecoPerWindow || i >= len(e.mods) {
			e.dry.Store(true)
			w.deadline = time.Now()
			return
		}
		c := &ecoChain{mod: e.mods[i]}
		var ctx context.Context
		ctx, w.req = w.tr.begin()
		err := e.chain(ctx, w, c)
		w.req.end(err, c, nil)
		e.record(i, c)
	})
	if e.dry.Load() {
		fmt.Printf("  note: the window ran its %d-module stream dry after %s\n", ecoPerWindow, w.elapsed.Round(time.Millisecond))
	}
	return w
}

// check recomputes every answer of every recorded chain in process:
// the estimate and congestion map of the module, and for each delta
// the full recompile of the edited netlist, whose plan hash must equal
// the delta's plan key.
func (e *ecoCold) check(ctx context.Context) *checker {
	c := &checker{}
	same := func(want any, got *[sha256.Size]byte) bool {
		sum, err := answerSum(want)
		return err == nil && *sum == *got
	}
	parallel(len(e.records), func(i int) {
		r := e.records[i]
		mod := e.mods[r.mod]
		name := mod.name
		base, err := parseModule(mod.format, "", mod.text, e.p)
		if err != nil {
			c.fail("%s: parse: %v", name, err)
			return
		}
		if r.est != nil {
			want, _, err := oracleEstimate(ctx, base, e.p, true)
			if err != nil || !same(want, r.est) {
				c.fail("%s: served estimate differs from the engine's (%v)", name, err)
			}
			c.count()
		}
		if r.cong != nil {
			want, _, err := oracleCongestion(ctx, base, e.p)
			if err != nil || !same(want, r.cong) {
				c.fail("%s: served congestion map differs from the engine's (%v)", name, err)
			}
			c.count()
		}
		for k, d := range r.deltas {
			script, err := edits(mod.script[:k+1])
			if err != nil {
				c.fail("%s: %v", name, err)
				return
			}
			edited, err := engine.ApplyEdits(base, script...)
			if err != nil {
				c.fail("%s delta %d: apply: %v", name, k, err)
				return
			}
			if h := serve.Key(engine.PlanHash(edited, e.p)).String(); h != d.plan {
				c.fail("%s delta %d: plan key %s, recompiled netlist hashes to %s", name, k, d.plan, h)
			}
			want, _, err := oracleEstimate(ctx, edited, e.p, true)
			if err != nil || !same(want, &d.sum) {
				c.fail("%s delta %d: served estimate differs from the recompiled netlist's (%v)", name, k, err)
			}
			c.count()
		}
	})
	return c
}

func (e *ecoCold) close() error {
	if e.srv == nil {
		return nil
	}
	err := e.srv.stop()
	e.srv = nil
	return err
}
