package floorplan

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"maest/internal/db"
)

// randStaircase draws a staircase of n integer shapes whose widths and
// heights come from a range barely wider than n, so that sums, maxima
// and areas collide often.
func randStaircase(rng *rand.Rand, n int) []combo {
	ws := rng.Perm(n + rng.Intn(4))[:n]
	hs := rng.Perm(n + rng.Intn(4))[:n]
	slices.Sort(ws)
	slices.Sort(hs)
	out := make([]combo, n)
	for i := range out {
		out[i] = combo{w: float64(1 + ws[i]), h: float64(1 + hs[n-1-i]), shapeIdx: i}
	}
	return out
}

// TestMergeMatchesCrossProduct pins the linear merge against the
// cross-product reference on random integer staircases of every size
// up to the cap: the same (w, h, cut, li, ri) lists, ties and cap
// included.
func TestMergeMatchesCrossProduct(t *testing.T) {
	cuts := newCutBufs()
	var dst []combo
	// Width sums (vertical cut) and height sums (horizontal cut)
	// that round to the same float: every point but the last of
	// each walk is dominated.
	big := []combo{{w: 1e16, h: 1}}
	small := []combo{{w: 0.25, h: 9}, {w: 0.5, h: 5}, {w: 0.75, h: 0.5}}
	tall := []combo{{w: 1, h: 1e16}}
	narrow := []combo{{w: 0.5, h: 0.75}, {w: 5, h: 0.5}, {w: 9, h: 0.25}}
	for _, tc := range [][2][]combo{{big, small}, {small, big}, {tall, narrow}, {narrow, tall}} {
		want := refCombine(tc[0], tc[1])
		if dst = cuts.combine(dst, tc[0], tc[1]); !slices.Equal(dst, want) {
			t.Fatalf("rounding case l=%v r=%v\nmerge     %v\nreference %v", tc[0], tc[1], dst, want)
		}
	}
	rng := rand.New(rand.NewSource(1983))
	var capped, capTies, exactTies int
	for trial := 0; trial < mergeTrials; trial++ {
		l := randStaircase(rng, 1+rng.Intn(maxCombos))
		r := randStaircase(rng, 1+rng.Intn(maxCombos))
		want := refCombine(l, r)
		dst = cuts.combine(dst, l, r)
		if !slices.Equal(dst, want) {
			t.Fatalf("trial %d: l=%v r=%v\nmerge     %v\nreference %v", trial, l, r, dst, want)
		}
		// Account for the tie cases the generator must reach.
		all := append(vcut(nil, l, r), hcut(nil, l, r)...)
		for i := range all {
			for j := i + 1; j < len(all); j++ {
				if all[i].w == all[j].w && all[i].h == all[j].h {
					exactTies++
				}
			}
		}
		if u := union(nil, cuts.v, cuts.h); len(u) > maxCombos {
			capped++
			slices.SortStableFunc(u, func(a, b combo) int { return cmp.Compare(a.w*a.h, b.w*b.h) })
			if u[maxCombos-1].w*u[maxCombos-1].h == u[maxCombos].w*u[maxCombos].h {
				capTies++
			}
		}
	}
	if exactTies == 0 || capped == 0 || capTies == 0 {
		t.Fatalf("generator missed a case: %d exact (w, h) ties, %d capped merges, %d area ties at the cap",
			exactTies, capped, capTies)
	}
}

// TestParetoMatchesReference covers leaf staircases: duplicate shapes,
// dominated shapes and lists longer than the cap.
func TestParetoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(2*maxCombos+8)
		cs := make([]combo, n)
		for i := range cs {
			cs[i] = combo{w: float64(1 + rng.Intn(n)), h: float64(1 + rng.Intn(n)), shapeIdx: i}
		}
		want := refPareto(slices.Clone(cs))
		if got := pareto(cs); !slices.Equal(got, want) {
			t.Fatalf("trial %d:\ngot  %v\nwant %v", trial, got, want)
		}
	}
}

// objectives are the four cost shapes the search scores: area only,
// wire length, congestion, and both.
var objectives = []struct {
	name          string
	wire, congest float64
}{
	{"area", 0, 0},
	{"wire", 0.5, 0},
	{"congest", 0, 1},
	{"both", 0.5, 1},
}

// planText renders a plan with its search statistics, which the
// determinism text leaves out but the bench's per-layer figures read.
func planText(t testing.TB, p *Plan) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePlanText(&buf, p); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s%+v\n", buf.Bytes(), p.Stats)
}

// chipDB turns resolved modules and nets into a legacy estimate
// database carrying the same shapes.
func chipDB(name string, ms []*mod, nets []Net) *db.Database {
	d := &db.Database{Chip: name}
	for _, m := range ms {
		dm := db.Module{Name: m.name, Devices: 1, Nets: 1, Ports: 1}
		for _, s := range m.shapes {
			dm.Shapes = append(dm.Shapes, db.Shape{Label: "s", Rows: s.rows, W: s.w, H: s.h})
		}
		d.Modules = append(d.Modules, dm)
	}
	for _, n := range nets {
		gn := db.GlobalNet{Name: n.Name}
		for _, p := range n.Pins {
			gn.Pins = append(gn.Pins, db.GlobalPin{Module: p.Module, Port: p.Port})
		}
		d.Nets = append(d.Nets, gn)
	}
	return d
}

// TestEvaluationMatchesReference runs whole searches — greedy and
// annealed, under every objective — through both the production
// evaluation and the reference, and requires byte-identical plans
// with identical search statistics; the legacy PlanChipOpt path is
// held to the same standard.
func TestEvaluationMatchesReference(t *testing.T) {
	ctx := context.Background()
	for n := 2; n <= referenceMaxModules; n++ {
		for seed := int64(1); seed <= referenceSeeds; seed++ {
			name, mods, nets, _ := annealChip(t, n, 100*seed+int64(n))
			for _, obj := range objectives {
				for _, budget := range []int{-1, 200} {
					got, err := PlanModules(ctx, name, mods, nets, WithWireWeight(obj.wire),
						WithCongestWeight(obj.congest), WithBudget(budget), WithSeed(seed))
					if err != nil {
						t.Fatal(err)
					}
					cfg := config{wireWeight: obj.wire, congestWeight: obj.congest, seed: seed,
						budget: budget, candidates: DefaultCandidates, trackSharing: true}
					ms, err := resolveModules(ctx, mods, nets, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refRun(ctx, name, ms, nets, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := planText(t, got), planText(t, want); g != w {
						t.Fatalf("%d modules, seed %d, %s, budget %d:\ngot\n%s\nwant\n%s", n, seed, obj.name, budget, g, w)
					}
				}
			}
			ms, err := resolveModules(ctx, mods, nets, config{candidates: DefaultCandidates, trackSharing: true})
			if err != nil {
				t.Fatal(err)
			}
			d := chipDB(name, ms, nets)
			for _, ww := range []float64{0, 0.5} {
				got, err := PlanChipOpt(d, PlanOptions{WireWeight: ww})
				if err != nil {
					t.Fatal(err)
				}
				dms, dnets := fromDB(d)
				want, err := refRun(ctx, d.Chip, dms, dnets, config{wireWeight: ww})
				if err != nil {
					t.Fatal(err)
				}
				if g, w := planText(t, got), planText(t, want); g != w {
					t.Fatalf("PlanChipOpt %d modules, seed %d, wire %g:\ngot\n%s\nwant\n%s", n, seed, ww, g, w)
				}
			}
		}
	}
}

// TestBlockByNameAliasesBlocks requires BlockByName to return the
// plan's own slot, on both the annealer and the legacy path.
func TestBlockByNameAliasesBlocks(t *testing.T) {
	ctx := context.Background()
	name, mods, nets, _ := annealChip(t, 6, 1)
	annealed, err := PlanModules(ctx, name, mods, nets, WithBudget(100), WithCongestWeight(1), WithWireWeight(0.5))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := resolveModules(ctx, mods, nets, config{candidates: DefaultCandidates, trackSharing: true})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := PlanChip(chipDB(name, ms, nets))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Plan{annealed, legacy} {
		if len(p.Blocks) != 6 {
			t.Fatalf("%d blocks, want 6", len(p.Blocks))
		}
		for i := range p.Blocks {
			if got := p.BlockByName(p.Blocks[i].Name); got != &p.Blocks[i] {
				t.Fatalf("BlockByName(%q) = %p, want &Blocks[%d] = %p", p.Blocks[i].Name, got, i, &p.Blocks[i])
			}
		}
	}
}

// permute calls visit with every ordering of ms (Heap's algorithm,
// in place).
func permute(ms []*mod, visit func([]*mod)) {
	c := make([]int, len(ms))
	visit(ms)
	for i := 1; i < len(ms); {
		if c[i] < i {
			if i%2 == 0 {
				ms[0], ms[i] = ms[i], ms[0]
			} else {
				ms[c[i]], ms[i] = ms[i], ms[c[i]]
			}
			visit(ms)
			c[i]++
			i = 1
		} else {
			c[i] = 0
			i++
		}
	}
}

// TestExhaustiveOrderOracle scores every module order of the balanced
// tree — the annealer's whole search space — and bounds the annealed
// plan's distance from that exact optimum.
func TestExhaustiveOrderOracle(t *testing.T) {
	ctx := context.Background()
	for n := 4; n <= oracleMaxModules; n++ {
		for seed := int64(1); seed <= 3; seed++ {
			name, mods, nets, _ := annealChip(t, n, seed)
			annealed, err := PlanModules(ctx, name, mods, nets, WithCongestWeight(1), WithWireWeight(0.5))
			if err != nil {
				t.Fatal(err)
			}
			cfg := config{wireWeight: 0.5, congestWeight: 1, candidates: DefaultCandidates, trackSharing: true}
			ms, err := resolveModules(ctx, mods, nets, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sc := newSearcher(ctx, name, ms, nets, cfg)
			opt, orders := math.Inf(1), 0
			permute(ms, func(order []*mod) {
				cost, err := sc.eval(order)
				if err != nil {
					t.Fatal(err)
				}
				opt, orders = math.Min(opt, cost), orders+1
			})
			gap := annealed.Cost/opt - 1
			t.Logf("%d modules, seed %d: %d orders, optimum %.6g, annealed %.6g, gap %.2f%%",
				n, seed, orders, opt, annealed.Cost, 100*gap)
			if gap < 0 {
				t.Fatalf("annealed cost %g below the exhaustive optimum %g", annealed.Cost, opt)
			}
			if gap > 0.02 {
				t.Fatalf("annealed cost %g is %.2f%% above the optimum %g", annealed.Cost, 100*gap, opt)
			}
		}
	}
}

// moveSearch prepares an annealer on an eight-module chip under the
// bench's objective, with the clustering order and every pairwise
// swap of it evaluated once, so the routability memo is warm.
func moveSearch(tb testing.TB) (*searcher, []*mod) {
	ctx := context.Background()
	name, mods, nets, _ := annealChip(tb, 8, 3)
	cfg := config{wireWeight: 0.5, congestWeight: 1, seed: 1, candidates: DefaultCandidates, trackSharing: true}
	ms, err := resolveModules(ctx, mods, nets, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sc := newSearcher(ctx, name, ms, nets, cfg)
	order := clusterOrder(ms, nets)
	for i := range order {
		for j := range order {
			order[i], order[j] = order[j], order[i]
			if _, err := sc.eval(order); err != nil {
				tb.Fatal(err)
			}
			order[i], order[j] = order[j], order[i]
		}
	}
	return sc, order
}

// TestAnnealMoveAllocatesNothing pins the allocation-free move: a
// swap, a full evaluation and the undo of a rejected swap.
func TestAnnealMoveAllocatesNothing(t *testing.T) {
	sc, order := moveSearch(t)
	allocs := testing.AllocsPerRun(20, func() {
		for i := range order {
			j := (i + 3) % len(order)
			order[i], order[j] = order[j], order[i]
			if _, err := sc.eval(order); err != nil {
				t.Fatal(err)
			}
			order[i], order[j] = order[j], order[i]
		}
	})
	if allocs != 0 {
		t.Fatalf("%g allocations per %d moves, want 0", allocs, len(order))
	}
}

// BenchmarkAnnealMove times the annealer's move loop — swap, shape
// curve merges, realization and scoring of every root candidate,
// Metropolis step — on an eight-module chip.
func BenchmarkAnnealMove(b *testing.B) {
	sc, order := moveSearch(b)
	if _, err := sc.eval(order); err != nil {
		b.Fatal(err)
	}
	best := sc.plan()
	sc.cfg.budget = b.N
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := sc.anneal(order, best); err != nil {
		b.Fatal(err)
	}
}
