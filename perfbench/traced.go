package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"maest/internal/core"
	"maest/internal/engine"
	"maest/internal/floorplan"
	"maest/internal/serve"
)

// The replay half of the traced run, per workload.  Each fills the
// per-layer metrics its layers reach and answers the replayed stage
// times of its /v1/estimate requests by trace id, for the
// flight-recorder cross-check.

func (s *sessionHot) replay(ctx context.Context, t *tracer, dir string, fr *serve.FlightResponse, m map[string]float64) (map[string]stages, error) {
	put, err := openPutStore(dir)
	if err != nil {
		return nil, err
	}
	defer closeStore(put, dir)
	r := newReplayer(ctx, t, s.p, s.srv.st, put)
	byTrace := map[string]stages{}
	var front, hitLat []float64
	for _, q := range inFlight(t, fr, func(traced) int { return 1 }) {
		op := q.op.(hotOp)
		mod := s.mods[op.mods[0]]
		sv := servedOf(q.recs[0])
		end := r.l.begin(q.traced)
		switch resp := q.resp.(type) {
		case *serve.EstimateResponse:
			var st stages
			if st, err = r.estimate(mod.request(op.variant), resp, sv); err == nil {
				byTrace[q.trace] = st
				if sv.lruHit {
					front = append(front, st["decode"]+st["parse"]+st["cache"])
					hitLat = append(hitLat, us(q.dur))
				}
			}
		case *serve.CongestionResponse:
			err = r.congestion(mod.congestion(op.variant), resp, sv)
		case *serve.BatchResponse:
			err = r.batch(s.batch(op), resp, sv)
		}
		end()
		if err != nil {
			return nil, err
		}
	}
	engineMetrics(r.l, r.comp, m)
	if len(hitLat) > 0 {
		m["serve.hit_overhead_share"] = ratio(Median(front), Median(hitLat))
	}
	return byTrace, nil
}

// ecoCalls is how many calls a traced chain made: the estimate, the
// congestion analysis and each delta it got through.
func ecoCalls(q traced) int {
	c := q.op.(*ecoChain)
	n := len(c.deltas)
	if c.est != nil {
		n++
	}
	if c.cong != nil {
		n++
	}
	return n
}

func (e *ecoCold) replay(ctx context.Context, t *tracer, dir string, fr *serve.FlightResponse, m map[string]float64) (map[string]stages, error) {
	put, err := openPutStore(dir)
	if err != nil {
		return nil, err
	}
	defer closeStore(put, dir)
	r := newReplayer(ctx, t, e.p, e.srv.st, put)
	byTrace := map[string]stages{}
	for _, q := range inFlight(t, fr, ecoCalls) {
		c := q.op.(*ecoChain)
		if c.est == nil {
			continue
		}
		end := r.l.begin(q.traced)
		st, err := r.estimate(c.mod.request(false), c.est, servedOf(q.recs[0]))
		if err == nil {
			byTrace[q.trace] = st
			if c.cong != nil {
				err = r.congestion(c.mod.congestion(false), c.cong, servedOf(q.recs[1]))
			}
		}
		plan := c.est.Plan
		for k := 0; err == nil && k < len(c.deltas); k++ {
			var step []engine.Edit
			if step, err = edits(c.mod.script[k : k+1]); err == nil {
				err = r.delta(step, serve.DeltaRequest{Parent: plan, Edits: c.mod.script[k]}, c.deltas[k], servedOf(q.recs[2+k]))
				plan = c.deltas[k].Plan
			}
		}
		end()
		if err != nil {
			return nil, err
		}
	}
	engineMetrics(r.l, r.comp, m)
	return byTrace, nil
}

// replay times the floorplan layers on the chips the traced window
// planned: fresh compiles, shape candidates and routability lookups
// per module, and a greedy pass per chip.
func (f *floorplanAnneal) replay(ctx context.Context, t *tracer, dir string, _ *serve.FlightResponse, m map[string]float64) (map[string]stages, error) {
	r := newReplayer(ctx, t, f.p, nil, nil)
	done := map[int]bool{}
	for _, q := range t.reqs {
		run := q.op.(*annealRun)
		if done[run.chip] || q.err != nil {
			continue
		}
		done[run.chip] = true
		end := r.l.begin(q)
		c := f.chips[run.chip]
		for _, pm := range c.mods {
			pl, _, err := r.compile(pm.Plan.Circuit())
			if err != nil {
				return nil, err
			}
			count := min(floorplan.DefaultCandidates, pl.Stats().N)
			var cands []*core.SCEstimate
			if _, err := r.l.time("floorplan.candidates", func() (err error) {
				cands, err = pl.Candidates(ctx, engine.WithCandidates(count), engine.WithTrackSharing(true))
				return err
			}); err != nil {
				return nil, err
			}
			for _, c := range cands {
				if _, err := r.l.time("floorplan.rout_lookup", func() error {
					_, err := pl.Congestion(ctx, engine.WithRows(c.Rows))
					return err
				}); err != nil {
					return nil, err
				}
			}
		}
		if _, err := r.l.time("floorplan.greedy", func() error {
			_, err := floorplan.PlanModules(ctx, c.name, c.mods, c.nets, planOptions(run.seed, floorplan.WithBudget(-1))...)
			return err
		}); err != nil {
			return nil, err
		}
		end()
	}
	engineMetrics(r.l, r.comp, m)
	m["floorplan.candidates_ms"] = r.l.median("floorplan.candidates") / 1e3
	m["floorplan.greedy_ms"] = r.l.median("floorplan.greedy") / 1e3
	m["floorplan.rout_lookup_us"] = r.l.median("floorplan.rout_lookup")

	var moves, plans []float64
	iters, evals, lookups, hits := 0, 0, 0, 0
	for _, q := range t.reqs {
		run := q.op.(*annealRun)
		if q.err != nil {
			continue
		}
		moves = append(moves, run.moves...)
		plans = append(plans, float64(run.dur.Nanoseconds())/1e6)
		st := run.plan.Stats
		iters, evals, lookups, hits = iters+st.Iterations, evals+st.Evals, lookups+st.RoutLookups, hits+st.RoutMemoHits
	}
	mv := Summarize(moves)
	m["floorplan.move_us_p50"], m["floorplan.move_us_p99"] = mv.P50, mv.P99
	m["floorplan.evals_per_move"] = ratio(float64(evals), float64(iters))
	m["floorplan.rout_memo_hit_ratio"] = ratio(float64(hits), float64(lookups))
	m["floorplan.plan_ms_p50"] = Median(plans)
	m["floorplan.anneal_cost_ratio"] = f.costRatio()
	return nil, nil
}

// flightGap compares the replay's attribution of /v1/estimate time
// with the server's own flight-recorder stage marks: for each stage,
// the mean share of request time the replay gives its layer against
// the mean share the server recorded, and answers the largest
// difference.
func flightGap(fr *serve.FlightResponse, byTrace map[string]stages, lat map[string]float64) float64 {
	var server, replay map[string]float64 = map[string]float64{}, map[string]float64{}
	n := 0
	for _, rec := range fr.Requests {
		st, ok := byTrace[rec.Trace]
		if !ok || rec.Endpoint != "/v1/estimate" || rec.Micros <= 0 || lat[rec.Trace] <= 0 {
			continue
		}
		n++
		for _, sg := range rec.Stages {
			if _, known := st[sg.Name]; known {
				server[sg.Name] += float64(sg.Micros) / float64(rec.Micros)
				replay[sg.Name] += st[sg.Name] / lat[rec.Trace]
			}
		}
	}
	gap := 0.0
	for name := range server {
		gap = math.Max(gap, math.Abs(server[name]-replay[name])/float64(n))
	}
	return gap
}

// tracedRun measures the per-layer metrics: an untraced window, a
// traced window, the correctness check, and the replay of the traced
// requests.  The window it answers counts the requests of both
// windows, so a failure in either fails the run.
func tracedRun(ctx context.Context, wl workload, dur time.Duration, dir string) (map[string]float64, *checker, *tracer, window, error) {
	m := map[string]float64{}
	for _, pl := range perLayer {
		m[pl.name] = 0
	}
	plain := wl.window(dur, nil)

	srv := wl.server()
	var before serverCounts
	var err error
	if srv != nil {
		if before, err = readServer(ctx, srv); err != nil {
			return nil, nil, nil, plain, err
		}
	}
	dm := readDistmemo()
	tr := newTracer()
	tw := wl.window(dur, tr)
	dm.ratios(readDistmemo(), m)
	both := plain
	both.attempted += tw.attempted
	both.failed += tw.failed
	both.rejected += tw.rejected
	if len(tr.reqs) == 0 {
		return nil, nil, nil, both, fmt.Errorf("the traced window traced no request")
	}

	lat := map[string]float64{}
	for _, q := range tr.reqs {
		lat[q.trace] = us(q.dur)
	}
	var fr *serve.FlightResponse
	if srv != nil {
		after, err := readServer(ctx, srv)
		if err != nil {
			return nil, nil, nil, both, err
		}
		before.ratios(after, m)
		if fr, err = srv.flight(ctx); err != nil {
			return nil, nil, nil, both, err
		}
		m["client.transport_us"] = transport(ctx, srv)
	}
	chk := wl.check(ctx)
	byTrace, err := wl.replay(ctx, tr, dir, fr, m)
	if err != nil {
		return nil, nil, nil, both, err
	}
	if fr != nil {
		if len(byTrace) == 0 {
			return nil, nil, nil, both, fmt.Errorf("no traced /v1/estimate request was left in the flight ring to replay")
		}
		m["trace.flight_share_gap"] = flightGap(fr, byTrace, lat)
	}
	if _, ok := wl.(*floorplanAnneal); ok {
		m["floorplan.alloc_bytes_per_move"] = ratio(float64(tw.allocBytes), float64(tw.ops))
	}
	m["client.error_rate"] = ratio(float64(both.failed), float64(both.attempted))
	m["client.rejected_429"] = float64(both.rejected)
	m["runtime.alloc_bytes_per_op"] = ratio(float64(plain.allocBytes), float64(plain.ops))
	m["runtime.gc_cycles_per_kop"] = ratio(1000*float64(plain.gcCycles), float64(plain.ops))
	p0, p1 := Summarize(plain.lat).P50, Summarize(tw.lat).P50
	m["trace.overhead_pct"] = 100 * ratio(p1-p0, p0)
	return m, chk, tr, both, nil
}
