package floorplan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"maest/internal/engine"
)

// This file keeps the evaluation the linear merge replaced as a
// test-only reference: every evaluation re-sorts each module's leaf
// shapes, rebuilds the slicing tree, combines every node from the full
// cross product of its children's shapes filtered through a sort, and
// realizes every root candidate into its own Plan to score it.  The
// sorts use total orders spelling out the documented tie rule (exact
// (w, h) ties to the combo generated first, equal areas at the cap to
// the narrower shape), so the reference pins ties the production code
// resolves by merge order.

// refLess orders combos as a stable sort of the cross product by
// (w, h) would: ties go to generation order — shape index for leaves;
// li, then ri, then 'v' before 'h' for internal nodes.
func refLess(a, b combo) bool {
	switch {
	case a.w != b.w:
		return a.w < b.w
	case a.h != b.h:
		return a.h < b.h
	case a.shapeIdx != b.shapeIdx:
		return a.shapeIdx < b.shapeIdx
	case a.li != b.li:
		return a.li < b.li
	case a.ri != b.ri:
		return a.ri < b.ri
	}
	return a.cut == 'v' && b.cut == 'h'
}

// refPareto is the sort-then-filter staircase.
func refPareto(cs []combo) []combo {
	sort.Slice(cs, func(i, j int) bool { return refLess(cs[i], cs[j]) })
	var out []combo
	for _, c := range cs {
		if len(out) > 0 && c.h >= out[len(out)-1].h {
			continue
		}
		out = append(out, c)
	}
	if len(out) > maxCombos {
		sort.Slice(out, func(i, j int) bool {
			ai, aj := out[i].w*out[i].h, out[j].w*out[j].h
			if ai != aj {
				return ai < aj
			}
			return out[i].w < out[j].w
		})
		out = out[:maxCombos]
		sort.Slice(out, func(i, j int) bool { return out[i].w < out[j].w })
	}
	return out
}

// refCombine is the cross-product combination of two child staircases.
func refCombine(l, r []combo) []combo {
	var out []combo
	for li, lc := range l {
		for ri, rc := range r {
			out = append(out, combo{
				w: lc.w + rc.w, h: math.Max(lc.h, rc.h),
				shapeIdx: -1, cut: 'v', li: li, ri: ri,
			})
			out = append(out, combo{
				w: math.Max(lc.w, rc.w), h: lc.h + rc.h,
				shapeIdx: -1, cut: 'h', li: li, ri: ri,
			})
		}
	}
	return refPareto(out)
}

type refNode struct {
	leaf        *mod
	left, right *refNode
	combos      []combo
}

func refBuildTree(nodes []*refNode) *refNode {
	for len(nodes) > 1 {
		var next []*refNode
		for i := 0; i < len(nodes); i += 2 {
			if i+1 == len(nodes) {
				next = append(next, nodes[i])
				continue
			}
			next = append(next, &refNode{left: nodes[i], right: nodes[i+1]})
		}
		nodes = next
	}
	return nodes[0]
}

func refCombineAll(n *refNode) {
	if n.leaf != nil {
		return
	}
	refCombineAll(n.left)
	refCombineAll(n.right)
	n.combos = refCombine(n.left.combos, n.right.combos)
}

func refRealize(n *refNode, ci int, x, y float64, p *Plan) {
	c := n.combos[ci]
	if n.leaf != nil {
		p.Blocks = append(p.Blocks, Placed{
			Name: n.leaf.name, X: x, Y: y, W: c.w, H: c.h,
			ShapeIndex: c.shapeIdx, Rows: n.leaf.shapes[c.shapeIdx].rows,
		})
		return
	}
	refRealize(n.left, c.li, x, y, p)
	lc := n.left.combos[c.li]
	if c.cut == 'v' {
		refRealize(n.right, c.ri, x+lc.w, y, p)
	} else {
		refRealize(n.right, c.ri, x, y+lc.h, p)
	}
}

func refWireLength(nets []Net, p *Plan) float64 {
	total := 0.0
	for _, net := range nets {
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		seen := false
		for _, pin := range net.Pins {
			b := p.BlockByName(pin.Module)
			if b == nil {
				continue
			}
			cx, cy := b.X+b.W/2, b.Y+b.H/2
			minX, maxX = math.Min(minX, cx), math.Max(maxX, cx)
			minY, maxY = math.Min(minY, cy), math.Max(maxY, cy)
			seen = true
		}
		if seen {
			total += (maxX - minX) + (maxY - minY)
		}
	}
	return total
}

// refSearch is one reference search: the old per-candidate Plan
// scoring with its own routability memo and effort counters.
type refSearch struct {
	ctx    context.Context
	chip   string
	nets   []Net
	cfg    config
	byName map[string]*mod
	rout   map[refRoutKey]float64
	stats  SearchStats
}

type refRoutKey struct {
	name string
	rows int
}

// refRun mirrors run with the reference evaluation.
func refRun(ctx context.Context, chip string, ms []*mod, nets []Net, cfg config) (*Plan, error) {
	rs := &refSearch{ctx: ctx, chip: chip, nets: nets, cfg: cfg,
		byName: map[string]*mod{}, rout: map[refRoutKey]float64{}}
	for _, m := range ms {
		rs.byName[m.name] = m
	}
	order := clusterOrder(ms, nets)
	best, err := rs.eval(order)
	if err != nil {
		return nil, err
	}
	rs.stats.InitialCost = best.Cost
	if cfg.budget > 0 && len(order) > 1 {
		if best, err = rs.anneal(order, best); err != nil {
			return nil, err
		}
	}
	rs.stats.FinalCost = best.Cost
	best.Stats = rs.stats
	sc := &searcher{ctx: ctx, byName: rs.byName}
	if err := sc.fillCongestion(best); err != nil {
		return nil, err
	}
	return best, nil
}

func (rs *refSearch) anneal(order []*mod, best *Plan) (*Plan, error) {
	curCost, bestCost := best.Cost, best.Cost
	rng := rand.New(rand.NewSource(rs.cfg.seed))
	temp := curCost * 0.2
	cool := math.Pow(1e-4/0.2, 1/float64(rs.cfg.budget))
	n := len(order)
	for it := 1; it <= rs.cfg.budget; it++ {
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		order[i], order[j] = order[j], order[i]
		cand, err := rs.eval(order)
		if err != nil {
			return nil, err
		}
		delta := cand.Cost - curCost
		if delta <= 0 || (temp > 0 && rng.Float64() < math.Exp(-delta/temp)) {
			curCost = cand.Cost
			if curCost < bestCost {
				best, bestCost = cand, curCost
			}
		} else {
			order[i], order[j] = order[j], order[i]
		}
		temp *= cool
		rs.stats.Iterations = it
	}
	return best, nil
}

func (rs *refSearch) eval(order []*mod) (*Plan, error) {
	rs.stats.Evals++
	leaves := make([]*refNode, len(order))
	for i, m := range order {
		n := &refNode{leaf: m}
		for si, s := range m.shapes {
			n.combos = append(n.combos, combo{w: s.w, h: s.h, shapeIdx: si})
		}
		n.combos = refPareto(n.combos)
		leaves[i] = n
	}
	root := refBuildTree(leaves)
	refCombineAll(root)
	if len(root.combos) == 0 {
		return nil, fmt.Errorf("%w: no feasible shape combination", ErrPlan)
	}
	mkPlan := func(idx int) *Plan {
		p := &Plan{Chip: rs.chip, Width: root.combos[idx].w, Height: root.combos[idx].h}
		refRealize(root, idx, 0, 0, p)
		p.byName = map[string]*Placed{}
		for i := range p.Blocks {
			p.byName[p.Blocks[i].Name] = &p.Blocks[i]
		}
		p.WireLength = refWireLength(rs.nets, p)
		return p
	}
	if rs.cfg.wireWeight <= 0 && rs.cfg.congestWeight <= 0 {
		best := 0
		for i, c := range root.combos {
			if c.w*c.h < root.combos[best].w*root.combos[best].h {
				best = i
			}
		}
		p := mkPlan(best)
		p.Cost = p.Area()
		return p, nil
	}
	var best *Plan
	bestScore := math.Inf(1)
	for i := range root.combos {
		p := mkPlan(i)
		cost := p.Area()
		if rs.cfg.wireWeight > 0 {
			cost += rs.cfg.wireWeight * p.WireLength * math.Sqrt(p.Area())
		}
		if rs.cfg.congestWeight > 0 {
			r, err := rs.routability(p)
			if err != nil {
				return nil, err
			}
			p.Routability = r
			cost *= 1 + rs.cfg.congestWeight*r
		}
		p.Cost = cost
		if p.Cost < bestScore {
			best, bestScore = p, p.Cost
		}
	}
	return best, nil
}

func (rs *refSearch) routability(p *Plan) (float64, error) {
	total := 0.0
	for _, b := range p.Blocks {
		m := rs.byName[b.Name]
		if m == nil || m.plan == nil || m.pins == 0 || b.Rows < 1 {
			continue
		}
		k := refRoutKey{name: b.Name, rows: b.Rows}
		rs.stats.RoutLookups++
		risk, ok := rs.rout[k]
		if ok {
			rs.stats.RoutMemoHits++
		} else {
			cm, err := m.plan.Congestion(rs.ctx, engine.WithRows(b.Rows))
			if err != nil {
				return 0, err
			}
			for _, ch := range cm.Channels {
				risk += ch.POverflow
			}
			rs.rout[k] = risk
		}
		total += float64(m.pins) * risk
	}
	return total, nil
}
