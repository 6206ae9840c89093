// Package floorplan is the chip floor planner the estimator feeds
// (paper §1, refs. Mason [2] and Ulysses [3]): it takes module shape
// candidates plus global interconnections and produces a slicing
// floor plan, choosing one shape per module.  The planner runs off
// compiled engine.Plans (PlanModules: §4 shape candidates via
// Plan.Candidates, channel overflow risk via Plan.Congestion); the
// legacy internal/db entry points (PlanChip, PlanChipOpt) survive as
// thin shims over the same search core.  It also hosts the §7
// experiment measuring how estimate quality changes the number of
// floor-planning iterations.
package floorplan

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"maest/internal/db"
	"maest/internal/obs"
)

// Floor-planner metrics: utilization tells whether the module shape
// estimates tile well; the latency histogram covers the §7
// iteration-loop budget.
var (
	mPlans     = obs.DefCounter("maest_floorplan_total", "completed floor plans")
	mPlanSec   = obs.DefHistogram("maest_floorplan_seconds", "floor-planning latency", obs.DefBuckets)
	mPlanUtil  = obs.DefHistogram("maest_floorplan_utilization_ratio", "chip area utilization of finished plans", obs.RatioBuckets)
	mPlanBlock = obs.DefCounter("maest_floorplan_modules_total", "modules placed by the floor planner")
)

// ErrPlan wraps floor-planning failures.
var ErrPlan = errors.New("floorplan: planning failed")

// Placed is one module's slot in the finished plan.
type Placed struct {
	Name       string
	X, Y, W, H float64
	// ShapeIndex is the index of the chosen candidate in the module's
	// shape list.
	ShapeIndex int
	// Rows is the standard-cell row count behind the chosen shape
	// (0 when the shape carries none, e.g. a naive square).
	Rows int
}

// Plan is a finished slicing floor plan.
type Plan struct {
	Chip   string
	Width  float64
	Height float64
	Blocks []Placed
	// WireLength is the half-perimeter length of the global nets over
	// block centres.
	WireLength float64
	// Routability is the pin-weighted Σ P(overflow) over the channels
	// of every Plan-backed module at its chosen row count — the
	// congestion term of the annealer's objective.  Zero when
	// congestion scoring was off or no module carried a plan.
	Routability float64
	// Cost is the objective value the planner minimized:
	// (area + wireWeight·wirelength·√area) · (1 + congestWeight·routability).
	Cost float64
	// Congestion details the winning plan's per-channel overflow risk
	// for every Plan-backed module (PlanModules path only).
	Congestion []ModuleCongest
	// Stats reports the search effort that produced the plan.
	Stats SearchStats

	byName map[string]*Placed
}

// ModuleCongest is one module's channel overflow risk in the winning
// plan, at the row count the planner chose for it.
type ModuleCongest struct {
	Module string
	Rows   int
	// POverflowSum is Σ P(overflow) over the module's channels.
	POverflowSum float64
	Channels     []ChannelRisk
}

// ChannelRisk is one routing channel's overflow probability.
type ChannelRisk struct {
	Index     int
	POverflow float64
}

// SearchStats reports how hard the planner worked.
type SearchStats struct {
	// Iterations is the number of anneal moves tried (0 for the
	// deterministic greedy path).
	Iterations int
	// Evals is the number of module orders evaluated — each one a
	// merge of every internal node's shape curve plus the scoring of
	// every root candidate — one for the greedy pass and one per
	// anneal move.
	Evals int
	// RoutLookups and RoutMemoHits count the per-(module, rows)
	// routability queries and how many were answered by the search's
	// memo instead of the engine.
	RoutLookups  int
	RoutMemoHits int
	// InitialCost and FinalCost bracket the anneal trajectory.
	InitialCost float64
	FinalCost   float64
}

// Area returns the chip bounding-box area.
func (p *Plan) Area() float64 { return p.Width * p.Height }

// Utilization returns Σ block areas / chip area.
func (p *Plan) Utilization() float64 {
	if p.Area() == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range p.Blocks {
		sum += b.W * b.H
	}
	return sum / p.Area()
}

// BlockByName returns the placed slot of a module, or nil.
func (p *Plan) BlockByName(name string) *Placed { return p.byName[name] }

// Net is one global interconnection between modules, the planner's
// own net shape (decoupled from internal/db so Plan-driven callers
// never build a database).
type Net struct {
	Name string
	Pins []NetPin
}

// NetPin is one connection of a global net.
type NetPin struct {
	Module string
	Port   string
}

// mod is the search core's view of one module: its candidate shapes
// plus, on the Plan-driven path, the compiled plan that answers
// congestion questions and the module's global-net pin count (its
// weight in the routability term).
type mod struct {
	name   string
	shapes []shapeCand
	plan   planner // nil on the legacy db path
	pins   int
	// Per-search state, set up once: idx is the module's position in
	// the search's module list, front its Pareto leaf staircase, and
	// rout the routability memo by shape, where shapes sharing a row
	// count share the first such shape's entry.
	idx    int
	front  []combo
	rout   []routMemo
	routOf []int
}

// shapeCand is one candidate shape of a module.
type shapeCand struct {
	w, h float64
	rows int
}

// shape candidates carried through the slicing combination, with
// back-pointers for reconstruction.
type combo struct {
	w, h float64
	// leaf: shapeIdx ≥ 0.  internal: cut is 'v' or 'h', li/ri select
	// the child combos.
	shapeIdx int
	cut      byte
	li, ri   int
}

// node is one slot of the balanced slicing tree.  The tree's shape
// depends only on the module count, so a search builds it once and
// every evaluation refills it: a leaf takes the module at its
// position in the order, an internal node recombines its children
// into its reused combos buffer.
type node struct {
	// leaf
	leaf *mod
	pos  int
	// internal
	left, right *node
	combos      []combo
}

// PlanChip floor-plans an estimate database: modules are clustered by
// global connectivity into a balanced slicing tree, each node
// combines child shape lists under both cut directions, and the
// minimum-area root shape is realized.
//
// PlanChip predates the engine.Plan pipeline and is retained as a
// thin shim over the same search core PlanModules drives; new code
// should compile modules with engine.Compile and call PlanModules,
// which adds candidate generation, congestion-aware cost and
// annealing on top of this deterministic greedy pass.
func PlanChip(d *db.Database) (*Plan, error) {
	return PlanChipOpt(d, PlanOptions{})
}

// PlanOptions tunes the legacy planner's objective.
type PlanOptions struct {
	// WireWeight trades chip area against global wire length: every
	// Pareto-optimal root shape is realized and scored as
	// area + WireWeight · wirelength · √area-normalization.  Zero
	// selects pure minimum area (one realization).
	WireWeight float64
}

// PlanChipOpt floor-plans a database with an explicit objective.
// Like PlanChip it is a compatibility shim over the Plan-driven
// search core; see PlanModules for the full objective.
func PlanChipOpt(d *db.Database, opts PlanOptions) (*Plan, error) {
	return PlanChipOptCtx(context.Background(), d, opts)
}

// PlanChipCtx is PlanChip with observability.
func PlanChipCtx(ctx context.Context, d *db.Database) (*Plan, error) {
	return PlanChipOptCtx(ctx, d, PlanOptions{})
}

// PlanChipOptCtx is PlanChipOpt with observability: a "floorplan"
// span carrying the chip dimensions and utilization plus the planner
// metrics.
func PlanChipOptCtx(ctx context.Context, d *db.Database, opts PlanOptions) (plan *Plan, err error) {
	_, sp := obs.Start(ctx, "floorplan")
	sp.SetString("chip", d.Chip)
	sp.SetInt("modules", int64(len(d.Modules)))
	defer func(t0 time.Time) {
		mPlanSec.Observe(time.Since(t0).Seconds())
		if err == nil {
			mPlans.Inc()
			mPlanBlock.Add(int64(len(plan.Blocks)))
			mPlanUtil.Observe(plan.Utilization())
			sp.SetFloat("width", plan.Width)
			sp.SetFloat("height", plan.Height)
			sp.SetFloat("utilization", plan.Utilization())
			sp.SetFloat("wirelength", plan.WireLength)
		}
		sp.EndErr(err)
	}(time.Now())
	return planChipOpt(ctx, d, opts)
}

func planChipOpt(ctx context.Context, d *db.Database, opts PlanOptions) (*Plan, error) {
	if err := db.Validate(d); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPlan, err)
	}
	if len(d.Modules) == 0 {
		return nil, fmt.Errorf("%w: no modules", ErrPlan)
	}
	ms, nets := fromDB(d)
	return run(ctx, d.Chip, ms, nets, config{wireWeight: opts.WireWeight})
}

// fromDB converts a legacy estimate database into the search core's
// module and net shapes, preserving shape order (so ShapeIndex keeps
// indexing the database's candidate list).
func fromDB(d *db.Database) ([]*mod, []Net) {
	ms := make([]*mod, len(d.Modules))
	for i := range d.Modules {
		m := &d.Modules[i]
		shapes := make([]shapeCand, len(m.Shapes))
		for si, s := range m.Shapes {
			shapes[si] = shapeCand{w: s.W, h: s.H, rows: s.Rows}
		}
		ms[i] = &mod{name: m.Name, shapes: shapes}
	}
	nets := make([]Net, len(d.Nets))
	for i, n := range d.Nets {
		pins := make([]NetPin, len(n.Pins))
		for j, p := range n.Pins {
			pins[j] = NetPin{Module: p.Module, Port: p.Port}
		}
		nets[i] = Net{Name: n.Name, Pins: pins}
	}
	return ms, nets
}

// clusterOrder orders modules so strongly connected ones end up
// adjacent in the slicing tree: a greedy chain that always appends
// the unplaced module with the strongest connectivity to the chain's
// tail.
func clusterOrder(ms []*mod, nets []Net) []*mod {
	n := len(ms)
	conn := make(map[string]map[string]int, n)
	for _, m := range ms {
		conn[m.name] = map[string]int{}
	}
	for _, net := range nets {
		for i := 0; i < len(net.Pins); i++ {
			for j := i + 1; j < len(net.Pins); j++ {
				a, b := net.Pins[i].Module, net.Pins[j].Module
				if a == b {
					continue
				}
				conn[a][b]++
				conn[b][a]++
			}
		}
	}
	// Start from the largest module (stable under ties by name).
	idx := make([]*mod, len(ms))
	copy(idx, ms)
	sort.Slice(idx, func(i, j int) bool {
		ai := idx[i].shapes[0].w * idx[i].shapes[0].h
		aj := idx[j].shapes[0].w * idx[j].shapes[0].h
		if ai != aj {
			return ai > aj
		}
		return idx[i].name < idx[j].name
	})
	used := map[string]bool{idx[0].name: true}
	order := []*mod{idx[0]}
	for len(order) < n {
		tail := order[len(order)-1].name
		var best *mod
		bestScore := -1
		for _, m := range idx {
			if used[m.name] {
				continue
			}
			score := conn[tail][m.name]
			if score > bestScore || (score == bestScore && best != nil && m.name < best.name) {
				best, bestScore = m, score
			}
		}
		used[best.name] = true
		order = append(order, best)
	}
	return order
}

// buildTree pairs adjacent slots level by level into a balanced
// slicing tree over n leaves.  Internal nodes come back bottom-up —
// children before parents, the root last — the order combination
// must run in — with combos buffers sized for the largest merge.
func buildTree(n int) (leaves, internal []*node) {
	leaves = make([]*node, n)
	for i := range leaves {
		leaves[i] = &node{pos: i}
	}
	level := leaves
	for len(level) > 1 {
		var next []*node
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			nd := &node{left: level[i], right: level[i+1], combos: make([]combo, 0, 2*maxCut)}
			internal = append(internal, nd)
			next = append(next, nd)
		}
		level = next
	}
	return leaves, internal
}

// maxCombos caps each node's candidate list; pruning keeps the Pareto
// staircase so the cap rarely binds.  maxCut bounds one cut's
// staircase over two capped children, so a node's union before the
// cap holds at most 2·maxCut combos.
const (
	maxCombos = 24
	maxCut    = 2*maxCombos - 1
)

// A staircase is a shape list sorted by strictly increasing width and
// strictly decreasing height: no entry dominates another.  Every
// node's combos form one.  Exact (w, h) ties between candidates are
// resolved as a stable sort of the cross product would resolve them:
// the combo generated first wins — lower li, then lower ri, then 'v'
// before 'h' (for leaves, the lower shape index).

// cutBufs holds the scratch combine works in — the two per-cut
// staircases and the cap's area ranking; one search reuses it for
// every node and every move.
type cutBufs struct {
	v, h []combo
	keys []areaKey
}

func newCutBufs() cutBufs {
	return cutBufs{
		v:    make([]combo, 0, maxCut),
		h:    make([]combo, 0, maxCut),
		keys: make([]areaKey, 0, 2*maxCut),
	}
}

// combine writes into dst the staircase of every way to join
// staircases l and r under a vertical or horizontal cut, capped at
// maxCombos.  This is Stockmeyer's linear merge ("Optimal orientations
// of cells in slicing floorplan designs", 1983): each cut's staircase
// takes one walk over the two children, and the two cut staircases
// merge in one more pass — no cross product, no sort unless the cap
// binds.
func (b *cutBufs) combine(dst, l, r []combo) []combo {
	dst = dst[:0]
	if len(l) == 0 || len(r) == 0 {
		return dst
	}
	b.v = vcut(b.v[:0], l, r)
	b.h = hcut(b.h[:0], l, r)
	return b.capCombos(union(dst, b.v, b.h))
}

// vcut appends the staircase of the vertical cut (side by side:
// widths add, the taller child sets the height).  It walks from both
// children's narrowest shapes, advancing whichever child is taller —
// only a shorter shape for that child can lower the combined height —
// so it emits at most len(l)+len(r)−1 points.
func vcut(dst, l, r []combo) []combo {
	for i, j := 0, 0; i < len(l) && j < len(r); {
		lc, rc := l[i], r[j]
		c := combo{w: lc.w + rc.w, h: max(lc.h, rc.h), shapeIdx: -1, cut: 'v', li: i, ri: j}
		// Rounding can make two width sums equal; the later,
		// shorter point then dominates the earlier one.
		if k := len(dst) - 1; k >= 0 && dst[k].w == c.w {
			dst = dst[:k]
		}
		dst = append(dst, c)
		switch {
		case lc.h > rc.h:
			i++
		case rc.h > lc.h:
			j++
		default:
			i, j = i+1, j+1
		}
	}
	return dst
}

// hcut appends the staircase of the horizontal cut (stacked: heights
// add, the wider child sets the width).  The mirror image of vcut: it
// walks from both children's widest shapes, advancing whichever child
// is wider, then reverses its output into increasing width.
func hcut(dst, l, r []combo) []combo {
	for i, j := len(l)-1, len(r)-1; i >= 0 && j >= 0; {
		lc, rc := l[i], r[j]
		c := combo{w: max(lc.w, rc.w), h: lc.h + rc.h, shapeIdx: -1, cut: 'h', li: i, ri: j}
		if k := len(dst) - 1; k >= 0 && dst[k].h == c.h {
			dst = dst[:k]
		}
		dst = append(dst, c)
		switch {
		case lc.w > rc.w:
			i--
		case rc.w > lc.w:
			j--
		default:
			i, j = i-1, j-1
		}
	}
	slices.Reverse(dst)
	return dst
}

// union appends the staircase of the union of the two cut staircases:
// a merge in (w, h) order that keeps each point strictly shorter than
// the last one kept.
func union(dst, v, h []combo) []combo {
	for i, j := 0, 0; i < len(v) || j < len(h); {
		var c combo
		if j == len(h) || i < len(v) && vFirst(v[i], h[j]) {
			c, i = v[i], i+1
		} else {
			c, j = h[j], j+1
		}
		if k := len(dst) - 1; k >= 0 && c.h >= dst[k].h {
			continue
		}
		dst = append(dst, c)
	}
	return dst
}

// vFirst reports whether vertical-cut point a precedes horizontal-cut
// point b in (w, h) order, an exact tie going to the combo generated
// first.
func vFirst(a, b combo) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	if a.h != b.h {
		return a.h < b.h
	}
	return a.li < b.li || a.li == b.li && a.ri <= b.ri
}

// pareto keeps the staircase of a leaf's shapes (no other shape has
// both smaller-or-equal width and height), capped at maxCombos
// entries by area.
func pareto(cs []combo) []combo {
	slices.SortStableFunc(cs, byWidthHeight)
	out := cs[:0]
	for _, c := range cs {
		// Sorted by ascending (w, h): the last kept entry has
		// width ≤ c.w, so it dominates c unless c is strictly
		// shorter.
		if len(out) > 0 && c.h >= out[len(out)-1].h {
			continue
		}
		out = append(out, c)
	}
	var b cutBufs
	return b.capCombos(out)
}

func byWidthHeight(a, b combo) int {
	if c := cmp.Compare(a.w, b.w); c != 0 {
		return c
	}
	return cmp.Compare(a.h, b.h)
}

// areaKey ranks staircase entry i for the cap: by area, equal areas
// going to the earlier — narrower — entry.
type areaKey struct {
	area float64
	i    int
}

func (k areaKey) less(o areaKey) bool {
	return k.area < o.area || k.area == o.area && k.i < o.i
}

// capCombos trims staircase cs to its maxCombos lowest-ranked
// entries, keeping them in width order.
func (b *cutBufs) capCombos(cs []combo) []combo {
	if len(cs) <= maxCombos {
		return cs
	}
	b.keys = b.keys[:0]
	for i, c := range cs {
		b.keys = append(b.keys, areaKey{c.w * c.h, i})
	}
	slices.SortFunc(b.keys, func(x, y areaKey) int {
		if x.less(y) {
			return -1
		}
		return 1 // keys are distinct
	})
	last := b.keys[maxCombos-1]
	out := cs[:0]
	for i, c := range cs {
		if !last.less(areaKey{c.w * c.h, i}) {
			out = append(out, c)
		}
	}
	return out
}
