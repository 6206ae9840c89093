package floorplan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"maest/internal/congest"
	"maest/internal/engine"
	"maest/internal/obs"
)

// Annealer metrics, alongside the planner metrics in floorplan.go:
// move throughput tells whether the budget is spent in the tree
// machinery or the congestion engine, and the memo counters expose
// how well the per-(module, rows) routability cache is amortizing.
var (
	mAnnealIters    = obs.DefCounter("maest_floorplan_anneal_iterations_total", "simulated-annealing moves tried")
	mAnnealAccepted = obs.DefCounter("maest_floorplan_anneal_accepted_total", "annealing moves accepted")
	mRoutLookups    = obs.DefCounter("maest_floorplan_rout_lookups_total", "per-(module, rows) routability queries during search")
	mRoutMemoHits   = obs.DefCounter("maest_floorplan_rout_memo_hits_total", "routability queries answered by the search memo")
)

// planner is the slice of engine.Plan the search core needs: the
// per-channel congestion question.  An interface so tests can score
// synthetic congestion without compiling circuits.
type planner interface {
	Congestion(ctx context.Context, opts ...engine.Option) (*congest.Map, error)
}

// PlanModule pairs a module name with its compiled engine plan — the
// Plan-driven planner's input.  The plan answers both questions the
// search asks: shape candidates (Plan.Candidates) and per-channel
// overflow risk (Plan.Congestion, backed by the shared distribution
// memo).
type PlanModule struct {
	Name string
	Plan *engine.Plan
}

// Default search knobs.  DefaultBudget is sized so a ten-module chip
// anneals in well under a second; DefaultCandidates matches the §7
// experiment's shape-candidate count.
const (
	DefaultBudget     = 2000
	DefaultCandidates = 5
	DefaultSeed       = 1
)

// config is the resolved option set.
type config struct {
	wireWeight    float64
	congestWeight float64
	seed          int64
	budget        int
	candidates    int
	trackSharing  bool
	progress      func(Progress)
}

// Option tunes the Plan-driven planner.
type Option func(*config)

// WithCongestWeight sets the routability weight: the cost of a
// candidate plan is multiplied by (1 + w·routability), where
// routability is the pin-weighted Σ P(overflow) over every module's
// channels at its chosen row count.  Zero (the default) turns
// congestion scoring off.
func WithCongestWeight(w float64) Option { return func(c *config) { c.congestWeight = w } }

// WithWireWeight sets the wire-length weight, the same trade
// PlanOptions.WireWeight expresses for the legacy path: the area term
// becomes area + w·wirelength·√area.  Zero (the default) scores pure
// area.
func WithWireWeight(w float64) Option { return func(c *config) { c.wireWeight = w } }

// WithSeed fixes the annealer's random source.  Plans are
// deterministic in (modules, nets, options, seed): the same inputs
// reproduce the same Plan byte for byte (see WritePlanText).
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithBudget sets the annealing move budget.  Zero or negative
// disables annealing, leaving the deterministic greedy pass (the
// legacy PlanChip behavior).
func WithBudget(n int) Option { return func(c *config) { c.budget = n } }

// WithCandidates sets how many shape candidates to request per module
// (clamped to the module's feasible row range).  Zero selects
// DefaultCandidates.
func WithCandidates(n int) Option { return func(c *config) { c.candidates = n } }

// WithTrackSharing toggles the §7 routing-track-sharing extension for
// candidate generation.  The Plan-driven planner defaults to on, the
// §7-extended configuration the iteration experiment uses.
func WithTrackSharing(on bool) Option { return func(c *config) { c.trackSharing = on } }

// WithProgress installs a progress callback, invoked once per anneal
// move (from the planning goroutine).  The job API uses it to surface
// iteration counts and the current best cost while a plan is being
// annealed; it must be cheap and must not block.
func WithProgress(fn func(Progress)) Option { return func(c *config) { c.progress = fn } }

// Progress is one annealing progress report.
type Progress struct {
	// Iteration counts moves tried so far (1-based); Budget is the
	// configured total.
	Iteration int
	Budget    int
	// Best is the lowest cost seen; Current is the cost of the
	// currently accepted plan.
	Best    float64
	Current float64
}

// PlanModules floor-plans compiled modules: shape candidates come
// from each module's engine.Plan, the slicing search minimizes
//
//	(area + wireWeight·wirelength·√area) · (1 + congestWeight·routability)
//
// and, with a positive budget, a simulated-annealing loop perturbs
// the module clustering order under a fixed seed.  Cancellation is
// checked every anneal move; ctx's error is returned as soon as it
// fires.  The routability term weights each module's Σ P(overflow)
// by its global-net pin count, so congestion in well-connected
// modules hurts more — the early-routability-assessment idea folded
// into the paper's slicing objective.
func PlanModules(ctx context.Context, chip string, mods []PlanModule, nets []Net, opts ...Option) (plan *Plan, err error) {
	cfg := config{
		seed:         DefaultSeed,
		budget:       DefaultBudget,
		candidates:   DefaultCandidates,
		trackSharing: true,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.candidates <= 0 {
		cfg.candidates = DefaultCandidates
	}

	ctx, sp := obs.Start(ctx, "floorplan.anneal")
	sp.SetString("chip", chip)
	sp.SetInt("modules", int64(len(mods)))
	sp.SetInt("budget", int64(cfg.budget))
	sp.SetInt("seed", cfg.seed)
	sp.SetFloat("congest_weight", cfg.congestWeight)
	defer func(t0 time.Time) {
		mPlanSec.Observe(time.Since(t0).Seconds())
		if err == nil {
			mPlans.Inc()
			mPlanBlock.Add(int64(len(plan.Blocks)))
			mPlanUtil.Observe(plan.Utilization())
			sp.SetFloat("cost", plan.Cost)
			sp.SetFloat("routability", plan.Routability)
			sp.SetInt("iterations", int64(plan.Stats.Iterations))
		}
		sp.EndErr(err)
	}(time.Now())

	ms, err := resolveModules(ctx, mods, nets, cfg)
	if err != nil {
		return nil, err
	}
	return run(ctx, chip, ms, nets, cfg)
}

// resolveModules validates the input and asks each module's plan for
// its shape candidates.
func resolveModules(ctx context.Context, mods []PlanModule, nets []Net, cfg config) ([]*mod, error) {
	if len(mods) == 0 {
		return nil, fmt.Errorf("%w: no modules", ErrPlan)
	}
	byName := make(map[string]*mod, len(mods))
	ms := make([]*mod, len(mods))
	for i, pm := range mods {
		if pm.Name == "" {
			return nil, fmt.Errorf("%w: module %d has no name", ErrPlan, i)
		}
		if pm.Plan == nil {
			return nil, fmt.Errorf("%w: module %q has no compiled plan", ErrPlan, pm.Name)
		}
		if byName[pm.Name] != nil {
			return nil, fmt.Errorf("%w: duplicate module %q", ErrPlan, pm.Name)
		}
		// Clamp the candidate request into the module's feasible row
		// range [1, N]; Plan.Candidates is strict and would refuse a
		// count the module cannot honor.
		count := cfg.candidates
		if n := pm.Plan.Stats().N; count > n {
			count = n
		}
		if count < 1 {
			count = 1
		}
		cands, err := pm.Plan.Candidates(ctx,
			engine.WithCandidates(count), engine.WithTrackSharing(cfg.trackSharing))
		if err != nil {
			return nil, fmt.Errorf("%w: module %q: %v", ErrPlan, pm.Name, err)
		}
		shapes := make([]shapeCand, len(cands))
		for si, c := range cands {
			shapes[si] = shapeCand{w: c.Width, h: c.Height, rows: c.Rows}
		}
		m := &mod{name: pm.Name, shapes: shapes, plan: pm.Plan}
		byName[pm.Name] = m
		ms[i] = m
	}
	for _, nt := range nets {
		for _, pin := range nt.Pins {
			m := byName[pin.Module]
			if m == nil {
				return nil, fmt.Errorf("%w: net %q references unknown module %q", ErrPlan, nt.Name, pin.Module)
			}
			m.pins++
		}
	}
	return ms, nil
}

// searcher carries one search's shared state: the effort counters
// and the evaluation buffers every move reuses.
type searcher struct {
	ctx    context.Context
	chip   string
	cfg    config
	byName map[string]*mod
	stats  SearchStats

	// leaves and internal are the balanced slicing tree (internal
	// bottom-up, root last); root is its top.
	leaves, internal []*node
	root             *node
	cuts             cutBufs
	// netPins holds each global net's pins resolved to module
	// indices (nets with no known pin dropped).
	netPins [][]int
	// placed is the root candidate being scored, realized in slot
	// (= order) position; centre holds its block centres by module
	// index.
	placed []Placed
	centre []point
	// win is the last evaluation's cheapest root candidate.
	win winner
}

// routMemo is one (module, rows) routability answer.
type routMemo struct {
	risk  float64
	known bool
}

type point struct{ x, y float64 }

// winner is an evaluation's cheapest root candidate: its index in the
// root's combos and the score it earned.
type winner struct {
	idx         int
	routability float64
	cost        float64
}

// newSearcher prepares one search over ms: leaf staircases, module
// indices, resolved nets and the slicing tree are built here, once,
// so that an evaluation only recombines and rescores.
func newSearcher(ctx context.Context, chip string, ms []*mod, nets []Net, cfg config) *searcher {
	sc := &searcher{
		ctx:    ctx,
		chip:   chip,
		cfg:    cfg,
		byName: make(map[string]*mod, len(ms)),
		cuts:   newCutBufs(),
		placed: make([]Placed, len(ms)),
		centre: make([]point, len(ms)),
	}
	for i, m := range ms {
		m.idx = i
		m.front = make([]combo, len(m.shapes))
		for si, s := range m.shapes {
			m.front[si] = combo{w: s.w, h: s.h, shapeIdx: si}
		}
		m.front = pareto(m.front)
		m.rout = make([]routMemo, len(m.shapes))
		m.routOf = make([]int, len(m.shapes))
		for si, s := range m.shapes {
			m.routOf[si] = slices.IndexFunc(m.shapes, func(o shapeCand) bool { return o.rows == s.rows })
		}
		sc.byName[m.name] = m
	}
	for _, nt := range nets {
		var pins []int
		for _, pin := range nt.Pins {
			if m := sc.byName[pin.Module]; m != nil {
				pins = append(pins, m.idx)
			}
		}
		if len(pins) > 0 {
			sc.netPins = append(sc.netPins, pins)
		}
	}
	sc.leaves, sc.internal = buildTree(len(ms))
	sc.root = sc.leaves[0]
	if len(sc.internal) > 0 {
		sc.root = sc.internal[len(sc.internal)-1]
	}
	return sc
}

// run is the shared search core behind both entry points: greedy
// clustering + slicing combination always, simulated annealing over
// the clustering order when the budget allows.
func run(ctx context.Context, chip string, ms []*mod, nets []Net, cfg config) (*Plan, error) {
	sc := newSearcher(ctx, chip, ms, nets, cfg)
	defer func() {
		mRoutLookups.Add(int64(sc.stats.RoutLookups))
		mRoutMemoHits.Add(int64(sc.stats.RoutMemoHits))
	}()
	order := clusterOrder(ms, nets)
	if _, err := sc.eval(order); err != nil {
		return nil, err
	}
	best := sc.plan()
	sc.stats.InitialCost = best.Cost
	if cfg.budget > 0 && len(order) > 1 {
		var err error
		if best, err = sc.anneal(order, best); err != nil {
			return nil, err
		}
	}
	sc.stats.FinalCost = best.Cost
	best.Stats = sc.stats
	if err := sc.fillCongestion(best); err != nil {
		return nil, err
	}
	return best, nil
}

// anneal perturbs the clustering order by pairwise swaps under
// Metropolis acceptance with geometric cooling.  Deterministic in the
// seed; cancellation is checked on every move.  A move that does not
// beat the best cost allocates nothing: only a new best is turned
// into a Plan.
func (sc *searcher) anneal(order []*mod, best *Plan) (*Plan, error) {
	const (
		startTempFrac = 0.2  // initial temperature as a fraction of the initial cost
		endTempFrac   = 1e-4 // final temperature fraction: effectively greedy by the end
	)
	bestCost, curCost := best.Cost, best.Cost
	rng := rand.New(rand.NewSource(sc.cfg.seed))
	temp := curCost * startTempFrac
	cool := math.Pow(endTempFrac/startTempFrac, 1/float64(sc.cfg.budget))
	n := len(order)
	for it := 1; it <= sc.cfg.budget; it++ {
		if err := sc.ctx.Err(); err != nil {
			return nil, err
		}
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		order[i], order[j] = order[j], order[i]
		cost, err := sc.eval(order)
		if err != nil {
			return nil, err
		}
		delta := cost - curCost
		if delta <= 0 || (temp > 0 && rng.Float64() < math.Exp(-delta/temp)) {
			curCost = cost
			mAnnealAccepted.Inc()
			if curCost < bestCost {
				best, bestCost = sc.plan(), curCost
			}
		} else {
			order[i], order[j] = order[j], order[i]
		}
		temp *= cool
		sc.stats.Iterations = it
		mAnnealIters.Inc()
		if sc.cfg.progress != nil {
			sc.cfg.progress(Progress{
				Iteration: it, Budget: sc.cfg.budget,
				Best: bestCost, Current: curCost,
			})
		}
	}
	return best, nil
}

// eval scores one module order and returns the cheapest root
// candidate's cost, remembering the candidate in sc.win: the leaves
// take the order's cached staircases, each internal node recombines
// its children, and every root candidate is realized into sc.placed
// and scored under the configured objective.  It allocates nothing
// once the node buffers have grown and the routability memo is warm.
func (sc *searcher) eval(order []*mod) (float64, error) {
	sc.stats.Evals++
	for k, m := range order {
		sc.leaves[k].leaf, sc.leaves[k].combos = m, m.front
	}
	for _, n := range sc.internal {
		n.combos = sc.cuts.combine(n.combos, n.left.combos, n.right.combos)
	}
	root := sc.root.combos
	if len(root) == 0 {
		return 0, fmt.Errorf("%w: no feasible shape combination", ErrPlan)
	}
	if sc.cfg.wireWeight <= 0 && sc.cfg.congestWeight <= 0 {
		// Pure minimum area: the legacy PlanChip behavior (first
		// strictly-smaller index wins ties), no realization needed.
		best := 0
		for i, c := range root {
			if c.w*c.h < root[best].w*root[best].h {
				best = i
			}
		}
		sc.win = winner{idx: best, cost: root[best].w * root[best].h}
		return sc.win.cost, nil
	}
	// Weighted objective: realize every root candidate and score
	// each.  The √area factor keeps area and wire length
	// commensurable across chip sizes; the congestion factor scales
	// the whole geometric cost so routability trades against silicon
	// directly.
	sc.win = winner{idx: -1, cost: math.Inf(1)}
	for i, c := range root {
		sc.realize(sc.root, i, 0, 0)
		area := c.w * c.h
		cost := area
		if sc.cfg.wireWeight > 0 {
			cost += sc.cfg.wireWeight * sc.wireLength() * math.Sqrt(area)
		}
		r := 0.0
		if sc.cfg.congestWeight > 0 {
			var err error
			if r, err = sc.routability(); err != nil {
				return 0, err
			}
			cost *= 1 + sc.cfg.congestWeight*r
		}
		if cost < sc.win.cost {
			sc.win = winner{idx: i, routability: r, cost: cost}
		}
	}
	if sc.win.idx < 0 {
		return 0, fmt.Errorf("%w: no shape combination has a finite cost", ErrPlan)
	}
	return sc.win.cost, nil
}

// realize walks the tree placing the blocks of root candidate ci into
// sc.placed.
func (sc *searcher) realize(n *node, ci int, x, y float64) {
	c := n.combos[ci]
	if n.left == nil {
		m := n.leaf
		sc.placed[n.pos] = Placed{
			Name: m.name, X: x, Y: y, W: c.w, H: c.h,
			ShapeIndex: c.shapeIdx, Rows: m.shapes[c.shapeIdx].rows,
		}
		sc.centre[m.idx] = point{x + c.w/2, y + c.h/2}
		return
	}
	sc.realize(n.left, c.li, x, y)
	lc := n.left.combos[c.li]
	if c.cut == 'v' {
		sc.realize(n.right, c.ri, x+lc.w, y)
	} else {
		sc.realize(n.right, c.ri, x, y+lc.h)
	}
}

// wireLength is the half-perimeter length of the global nets over the
// centres of the blocks in sc.placed.
func (sc *searcher) wireLength() float64 {
	total := 0.0
	for _, pins := range sc.netPins {
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for _, mi := range pins {
			// The builtins have math.Min and math.Max's semantics,
			// inlined.
			c := sc.centre[mi]
			minX, maxX = min(minX, c.x), max(maxX, c.x)
			minY, maxY = min(minY, c.y), max(maxY, c.y)
		}
		total += (maxX - minX) + (maxY - minY)
	}
	return total
}

// plan turns the last evaluation's winning root candidate into a
// Plan.  The tree still holds that evaluation's combos, so realizing
// the candidate again reproduces the blocks it was scored on.
func (sc *searcher) plan() *Plan {
	c := sc.root.combos[sc.win.idx]
	sc.realize(sc.root, sc.win.idx, 0, 0)
	p := &Plan{
		Chip:        sc.chip,
		Width:       c.w,
		Height:      c.h,
		Blocks:      slices.Clone(sc.placed),
		WireLength:  sc.wireLength(),
		Routability: sc.win.routability,
		Cost:        sc.win.cost,
		byName:      make(map[string]*Placed, len(sc.placed)),
	}
	for i := range p.Blocks {
		p.byName[p.Blocks[i].Name] = &p.Blocks[i]
	}
	return p
}

// routability sums each Plan-backed module's channel overflow risk at
// its chosen row count in sc.placed, weighted by the module's
// global-net pin count (the channels a global net crosses belong to
// the modules it pins).  Memoized per (module, rows): the anneal
// revisits the same row choices constantly, and the engine's
// congestion answer for a pair never changes.
func (sc *searcher) routability() (float64, error) {
	total := 0.0
	for k := range sc.placed {
		m, b := sc.leaves[k].leaf, &sc.placed[k]
		if m.plan == nil || m.pins == 0 || b.Rows < 1 {
			continue
		}
		memo := &m.rout[m.routOf[b.ShapeIndex]]
		sc.stats.RoutLookups++
		if memo.known {
			sc.stats.RoutMemoHits++
		} else {
			cm, err := m.plan.Congestion(sc.ctx, engine.WithRows(b.Rows))
			if err != nil {
				return 0, err
			}
			for _, ch := range cm.Channels {
				memo.risk += ch.POverflow
			}
			memo.known = true
		}
		total += float64(m.pins) * memo.risk
	}
	return total, nil
}

// fillCongestion records the winning plan's per-channel overflow risk
// for every Plan-backed module — the detail clients of the job API
// read off the final answer.  The engine memoizes per (rows, knobs),
// so these lookups are hits when congestion scoring already ran.
func (sc *searcher) fillCongestion(p *Plan) error {
	for _, b := range p.Blocks {
		m := sc.byName[b.Name]
		if m == nil || m.plan == nil || b.Rows < 1 {
			continue
		}
		cm, err := m.plan.Congestion(sc.ctx, engine.WithRows(b.Rows))
		if err != nil {
			return err
		}
		mc := ModuleCongest{Module: b.Name, Rows: b.Rows}
		for _, ch := range cm.Channels {
			mc.Channels = append(mc.Channels, ChannelRisk{Index: ch.Index, POverflow: ch.POverflow})
			mc.POverflowSum += ch.POverflow
		}
		p.Congestion = append(p.Congestion, mc)
	}
	return nil
}
