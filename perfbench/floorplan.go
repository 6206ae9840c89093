package main

import (
	"bytes"
	"context"
	"time"

	"maest/internal/engine/distmemo"
	"maest/internal/floorplan"
	"maest/internal/tech"
)

// floorplan-anneal: design-space exploration in process.  The same
// compiled chips are annealed again and again under new seeds, so
// once set-up has run the plan memos answer every engine question and
// the time goes to the move → combine → routability → cost loop.

// moveBlock is how many consecutive anneal moves one floorplan-anneal
// latency sample averages.
const moveBlock = 100

// annealRun is one PlanModules call of the window.
type annealRun struct {
	chip  int
	seed  int64
	plan  *floorplan.Plan
	dur   time.Duration
	moves []float64 // µs between consecutive progress callbacks
}

type floorplanAnneal struct {
	seed   int64
	p      *tech.Process
	chips  []*chip
	greedy []float64 // greedy (budget −1) cost per chip
	runs   []*annealRun
}

func newFloorplanAnneal(seed int64) *floorplanAnneal {
	return &floorplanAnneal{seed: seed, p: tech.NMOS25()}
}

func planOptions(seed int64, extra ...floorplan.Option) []floorplan.Option {
	return append([]floorplan.Option{
		floorplan.WithCongestWeight(1), floorplan.WithWireWeight(0.5), floorplan.WithSeed(seed),
	}, extra...)
}

// setup generates and compiles the chips and runs each one's greedy
// pass, which fills the shape-candidate and congestion memos.
func (f *floorplanAnneal) setupChips() error {
	distmemo.Purge()
	chips, err := genChips(f.p)
	if err != nil {
		return err
	}
	f.chips, f.greedy, f.runs = chips, make([]float64, len(chips)), nil
	for i, c := range chips {
		g, err := floorplan.PlanModules(context.Background(), c.name, c.mods, c.nets,
			planOptions(floorplan.DefaultSeed, floorplan.WithBudget(-1))...)
		if err != nil {
			return err
		}
		f.greedy[i] = g.Cost
	}
	return nil
}

// anneal runs plan k of the exploration: the chips in turn, each time
// under a new seed.
func (f *floorplanAnneal) anneal(ctx context.Context, k int, progress func(floorplan.Progress)) (*annealRun, error) {
	r := &annealRun{chip: k % len(f.chips), seed: subSeed(f.seed, streamPlanSeeds, k)}
	c := f.chips[r.chip]
	opts := planOptions(r.seed)
	if progress != nil {
		opts = append(opts, floorplan.WithProgress(progress))
	}
	t0 := time.Now()
	plan, err := floorplan.PlanModules(ctx, c.name, c.mods, c.nets, opts...)
	r.plan, r.dur = plan, time.Since(t0)
	return r, err
}

// window anneals on one goroutine, in whole cycles over the design
// set: a cycle under way at the deadline runs to completion, so every
// window holds the same mix of chips.  Each anneal move is one
// operation, timed as the gap between consecutive progress callbacks.
// A latency sample is the mean move time of a block of moveBlock
// consecutive moves: a window holds too few plans (about two per chip)
// for plan-time quantiles to be steady, and short blocks put every
// scheduler or GC stall of a few milliseconds into the tail.
func (f *floorplanAnneal) window(dur time.Duration, tr *tracer) window {
	k := 0
	return runWindow(1, dur, tr, func(w *worker) {
		for end := k + len(f.chips); k < end; k++ {
			f.plan(w, k)
		}
	})
}

// plan runs plan k of the window on w.
func (f *floorplanAnneal) plan(w *worker, k int) {
	var moves []float64
	var last time.Time
	progress := func(floorplan.Progress) {
		now := time.Now()
		if !last.IsZero() {
			moves = append(moves, float64(now.Sub(last).Nanoseconds())/1e3)
		}
		last = now
	}
	ctx, rt := w.tr.begin()
	w.attempted++
	r, err := f.anneal(ctx, k, progress)
	rt.end(err, r, nil)
	if err != nil {
		w.failed++
		return
	}
	r.moves = moves
	for i := 0; i+moveBlock <= len(moves); i += moveBlock {
		w.lat = append(w.lat, Mean(moves[i:i+moveBlock]))
	}
	w.ops += r.plan.Stats.Iterations
	f.runs = append(f.runs, r)
}

// check reruns every plan under its seed: the plan text must be byte
// identical, and the annealed cost must not exceed the greedy cost.
func (f *floorplanAnneal) check(ctx context.Context) *checker {
	c := &checker{}
	parallel(len(f.runs), func(i int) {
		r := f.runs[i]
		again, err := floorplan.PlanModules(ctx, f.chips[r.chip].name, f.chips[r.chip].mods, f.chips[r.chip].nets, planOptions(r.seed)...)
		if err != nil {
			c.fail("plan %d: rerun: %v", i, err)
			return
		}
		var a, b bytes.Buffer
		if err := floorplan.WritePlanText(&a, r.plan); err != nil {
			c.fail("plan %d: %v", i, err)
		}
		if err := floorplan.WritePlanText(&b, again); err != nil {
			c.fail("plan %d: %v", i, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			c.fail("plan %d (chip %s, seed %d): rerun with the same seed gave a different plan", i, f.chips[r.chip].name, r.seed)
		}
		if r.plan.Cost > f.greedy[r.chip] {
			c.fail("plan %d: annealed cost %g exceeds greedy cost %g", i, r.plan.Cost, f.greedy[r.chip])
		}
		c.count()
	})
	return c
}

// costRatio is the mean annealed cost over greedy cost of the window's
// plans.
func (f *floorplanAnneal) costRatio() float64 {
	var rs []float64
	for _, r := range f.runs {
		rs = append(rs, r.plan.Cost/f.greedy[r.chip])
	}
	return Mean(rs)
}
