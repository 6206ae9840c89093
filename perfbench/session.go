package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"maest/internal/engine/distmemo"
	"maest/internal/serve"
	"maest/internal/tech"
)

// session-hot: an interactive floorplanning session that only reads.
// Its working set is twice the server's 1024-entry LRUs and its access
// is Zipf-skewed, so most requests hit the LRUs while the tail misses
// them and is answered from the persistent store.

const (
	sessionModules = 2048
	sessionWarmOps = 2048
	sessionOps     = 1 << 17
	zipfS          = 1.1
	zipfV          = 8 // rank offset: no single module takes more than ~3% of requests
	variantShare   = 0.10
)

type opKind uint8

const (
	opEstimate opKind = iota
	opCongestion
	opBatch
)

// hotOp is one scheduled request: module indices (one, or a batch) and
// whether the reordered-text variant is sent.
type hotOp struct {
	kind    opKind
	variant bool
	mods    []int32
}

type sessionHot struct {
	seed int64
	p    *tech.Process
	mods []*module
	ops  []hotOp
	srv  *server

	next    atomic.Int64
	answers sync.Map // answer identity → first answer seen
	drift   checker  // repeat answers that differ from the first
}

func newSessionHot(seed int64) *sessionHot {
	return &sessionHot{seed: seed, p: tech.NMOS25()}
}

// schedule draws n requests from the session's Zipf popularity law;
// module i has popularity rank i.  Module sizes are laid out
// independently of the index, and identically for every seed.
func schedule(seed int64, stream int, mods []*module, n int) []hotOp {
	rng := rand.New(rand.NewSource(subSeed(seed, stream, 0)))
	z := rand.NewZipf(rng, zipfS, zipfV, uint64(len(mods)-1))
	draw := func() int32 { return int32(z.Uint64()) }
	ops := make([]hotOp, n)
	for i := range ops {
		op := hotOp{}
		switch r := rng.Float64(); {
		case r < 0.6:
			op.kind = opEstimate
		case r < 0.9:
			op.kind = opCongestion
		default:
			op.kind = opBatch
		}
		if op.kind == opBatch {
			for k := 4 + rng.Intn(5); k > 0; k-- {
				op.mods = append(op.mods, draw())
			}
		} else {
			op.mods = []int32{draw()}
			op.variant = mods[op.mods[0]].variant != "" && rng.Float64() < variantShare
		}
		ops[i] = op
	}
	return ops
}

// setup generates the working set, populates a fresh store through a
// server, restarts the server on the populated store, and warms the
// LRUs and the distribution memo with a disjoint warm-up schedule.
func (s *sessionHot) setup(dir string) error {
	if s.srv != nil {
		if err := s.srv.stop(); err != nil {
			return err
		}
		s.srv = nil
	}
	distmemo.Purge()
	mods, err := genModules(s.seed, streamSession, sessionModules, sessionModules, "hot", true, s.p)
	if err != nil {
		return err
	}
	for _, m := range mods {
		m.circ = nil
	}
	s.mods = mods
	s.ops = schedule(s.seed, streamSessionOps, mods, sessionOps)
	warm := schedule(s.seed, streamWarmOps, mods, sessionWarmOps)

	srv, err := startServer(dir)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var failed atomic.Int64
	parallel(len(mods), func(i int) {
		if _, err := srv.cli.Estimate(ctx, mods[i].request(false)); err != nil {
			failed.Add(1)
		}
		if _, err := srv.cli.Congestion(ctx, mods[i].congestion(false)); err != nil {
			failed.Add(1)
		}
	})
	if err := srv.stop(); err != nil {
		return err
	}
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("store population: %d requests failed", n)
	}
	if s.srv, err = startServer(dir); err != nil {
		return err
	}
	parallel(len(warm), func(i int) {
		if _, err := s.send(ctx, warm[i]); err != nil {
			failed.Add(1)
		}
	})
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("warm-up: %d requests failed", n)
	}
	return nil
}

// send issues one scheduled request and returns the decoded answer.
func (s *sessionHot) send(ctx context.Context, op hotOp) (any, error) {
	m := s.mods[op.mods[0]]
	switch op.kind {
	case opEstimate:
		return s.srv.cli.Estimate(ctx, m.request(op.variant))
	case opCongestion:
		return s.srv.cli.Congestion(ctx, m.congestion(op.variant))
	default:
		resp, err := s.srv.cli.EstimateBatch(ctx, s.batch(op))
		if err == nil && len(resp.Modules) != len(op.mods) {
			err = fmt.Errorf("batch answered %d of %d modules", len(resp.Modules), len(op.mods))
		}
		return resp, err
	}
}

func (s *sessionHot) batch(op hotOp) serve.BatchRequest {
	req := serve.BatchRequest{}
	for _, i := range op.mods {
		req.Modules = append(req.Modules, s.mods[i].input())
	}
	return req
}

// keep records the answers of one request: the first answer per
// identity is kept for the oracle, and any later answer that differs
// from it is a failure of the run.
func (s *sessionHot) keep(op hotOp, resp any) {
	switch a := resp.(type) {
	case *serve.EstimateResponse:
		s.keepOne(fmt.Sprintf("e/%d/%t", op.mods[0], op.variant), a)
	case *serve.CongestionResponse:
		s.keepOne(fmt.Sprintf("c/%d/%t", op.mods[0], op.variant), a)
	case *serve.BatchResponse:
		for j, i := range op.mods {
			s.keepOne(fmt.Sprintf("b/%d/false", i), &a.Modules[j])
		}
	}
}

func (s *sessionHot) keepOne(key string, answer any) {
	first, loaded := s.answers.LoadOrStore(key, answer)
	if !loaded {
		return
	}
	same := false
	switch a := answer.(type) {
	case *serve.EstimateResponse:
		same = sameEstimate(a, first.(*serve.EstimateResponse))
	case *serve.CongestionResponse:
		same = sameCongestion(a, first.(*serve.CongestionResponse))
	}
	if !same {
		s.drift.fail("%s: a repeat answer differs from the first", key)
	}
}

func (s *sessionHot) window(dur time.Duration, tr *tracer) window {
	return runWindow(serveClients, dur, tr, func(w *worker) {
		op := s.ops[int(s.next.Add(1)-1)%len(s.ops)]
		var ctx context.Context
		ctx, w.req = w.tr.begin()
		var resp any
		_, _, err := w.call(func() (err error) {
			resp, err = s.send(ctx, op)
			return err
		})
		if err == nil {
			s.keep(op, resp)
		}
		w.req.end(err, op, resp)
	})
}

// check recomputes every distinct answer of the run in process.
func (s *sessionHot) check(ctx context.Context) *checker {
	c := &s.drift
	var keys []string
	s.answers.Range(func(k, _ any) bool {
		keys = append(keys, k.(string))
		return true
	})
	parallel(len(keys), func(i int) {
		var kind rune
		var idx int
		var variant bool
		if _, err := fmt.Sscanf(keys[i], "%c/%d/%t", &kind, &idx, &variant); err != nil {
			c.fail("%s: bad answer key: %v", keys[i], err)
			return
		}
		m := s.mods[idx]
		req := m.request(variant)
		circ, err := parseModule(req.Format, req.Name, req.Netlist, s.p)
		if err != nil {
			c.fail("%s: parse: %v", keys[i], err)
			return
		}
		got, _ := s.answers.Load(keys[i])
		switch kind {
		case 'e', 'b':
			want, _, err := oracleEstimate(ctx, circ, s.p, kind == 'e')
			if err != nil {
				c.fail("%s: oracle: %v", keys[i], err)
			} else if !sameEstimate(want, got.(*serve.EstimateResponse)) {
				c.fail("%s (%s): served estimate differs from the engine's", keys[i], m.name)
			}
		case 'c':
			want, _, err := oracleCongestion(ctx, circ, s.p)
			if err != nil {
				c.fail("%s: oracle: %v", keys[i], err)
			} else if !sameCongestion(want, got.(*serve.CongestionResponse)) {
				c.fail("%s (%s): served congestion map differs from the engine's", keys[i], m.name)
			}
		}
		c.count()
	})
	return c
}

func (s *sessionHot) close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.stop()
	s.srv = nil
	return err
}
