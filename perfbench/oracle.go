package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"

	"maest/internal/congest"
	"maest/internal/core"
	"maest/internal/engine"
	"maest/internal/netlist"
	"maest/internal/serve"
	"maest/internal/tech"
)

// The correctness oracle: every answer the server gave is recomputed
// in process from the same input through the engine and compared
// field by field (cache_hit aside — it describes the path, not the
// answer).  The wire mapping below is written out independently of
// the server's encoder, so a change to either shows as a mismatch.

const procName = "nmos25"

func scBody(sc *core.SCEstimate) serve.SCBody {
	return serve.SCBody{
		Rows: sc.Rows, Tracks: sc.Tracks, FeedThroughs: sc.FeedThroughs,
		Width: sc.Width, Height: sc.Height, Area: sc.Area,
		AspectRatio: sc.AspectRatio, PortFeasible: sc.PortFeasible,
	}
}

func fcBody(fc *core.FCEstimate) *serve.FCBody {
	if fc == nil {
		return nil
	}
	return &serve.FCBody{
		Mode: fc.Mode.String(), DeviceArea: fc.DeviceArea, WireArea: fc.WireArea,
		Area: fc.Area, Width: fc.Width, Height: fc.Height, AspectRatio: fc.AspectRatio,
	}
}

// wantEstimate is the answer the server must give for res under key.
func wantEstimate(res *core.Result, key serve.Key, plan string) *serve.EstimateResponse {
	out := &serve.EstimateResponse{
		Module: res.Module, Process: procName, Key: key.String(), Plan: plan,
		Stats:   serve.StatsBody{Devices: res.Stats.N, Nets: res.Stats.H, Ports: res.Stats.NumPorts},
		FCExact: fcBody(res.FCExact), FCAvg: fcBody(res.FCAverage),
	}
	if res.SC != nil {
		sc := scBody(res.SC)
		out.SC = &sc
		for _, c := range res.SCCandidates {
			out.SCShapes = append(out.SCShapes, scBody(c))
		}
	}
	return out
}

func wantCongestion(m *congest.Map, key serve.Key) *serve.CongestionResponse {
	out := &serve.CongestionResponse{
		Module: m.Module, Process: procName, Key: key.String(), Model: m.Model.String(),
		Rows: m.Rows, Gridded: m.Gridded, Nets: m.Nets,
		ExpectedTracks: m.TotalExpectedTracks, ExpectedFeeds: m.TotalExpectedFeeds,
	}
	for _, ch := range m.Channels {
		out.Channels = append(out.Channels, serve.ChannelBody{
			Index: ch.Index, Expected: ch.Expected, Capacity: ch.Capacity,
			Utilization: ch.Utilization, POverflow: ch.POverflow,
		})
	}
	for _, rf := range m.Feeds {
		out.Feeds = append(out.Feeds, serve.RowFeedsBody{
			Index: rf.Index, Expected: rf.Expected, Budget: rf.Budget, POverBudget: rf.POverBudget,
		})
	}
	for _, h := range m.Hotspots {
		out.Hotspots = append(out.Hotspots, serve.HotspotBody{Kind: h.Kind, Index: h.Index, Score: h.Score, Expected: h.Expected})
	}
	return out
}

// oracleEstimate computes the estimate answer for a parsed circuit.
func oracleEstimate(ctx context.Context, c *netlist.Circuit, p *tech.Process, withPlan bool) (*serve.EstimateResponse, *core.Result, error) {
	pl, err := engine.Compile(c, p)
	if err != nil {
		return nil, nil, err
	}
	res, err := pl.Estimate(ctx)
	if err != nil {
		return nil, nil, err
	}
	plan := ""
	if withPlan {
		plan = serve.Key(engine.PlanHash(c, p)).String()
	}
	return wantEstimate(res, serve.CacheKey(c, procName, core.SCOptions{}), plan), res, nil
}

// oracleCongestion computes the default congestion answer.
func oracleCongestion(ctx context.Context, c *netlist.Circuit, p *tech.Process) (*serve.CongestionResponse, *congest.Map, error) {
	pl, err := engine.Compile(c, p)
	if err != nil {
		return nil, nil, err
	}
	model, err := congest.ParseModel("")
	if err != nil {
		return nil, nil, err
	}
	rows := pl.InitialRows()
	m, err := pl.Congestion(ctx, engine.WithRows(rows), engine.WithCongestModel(model))
	if err != nil {
		return nil, nil, err
	}
	key := serve.CongestKey(c, procName, rows, false, congest.Options{Model: model})
	return wantCongestion(m, key), m, nil
}

// edits converts a wire edit script into the engine's edit algebra
// (the four ops the eco-cold chain uses).
func edits(script [][]serve.EditBody) ([]engine.Edit, error) {
	var out []engine.Edit
	for _, step := range script {
		for _, e := range step {
			switch e.Op {
			case "add_cell":
				out = append(out, engine.AddCell(e.Name, e.Type, e.Nets...))
			case "connect_pin":
				out = append(out, engine.ConnectPin(e.Device, e.Net))
			case "disconnect_pin":
				out = append(out, engine.DisconnectPin(e.Device, e.Net))
			case "remove_cell":
				out = append(out, engine.RemoveCell(e.Name))
			default:
				return nil, fmt.Errorf("unsupported edit %q", e.Op)
			}
		}
	}
	return out, nil
}

// sameEstimate and sameCongestion compare two answers with cache_hit
// cleared on copies.
func sameEstimate(a, b *serve.EstimateResponse) bool {
	x, y := *a, *b
	x.CacheHit, y.CacheHit = false, false
	return reflect.DeepEqual(x, y)
}

func sameCongestion(a, b *serve.CongestionResponse) bool {
	x, y := *a, *b
	x.CacheHit, y.CacheHit = false, false
	return reflect.DeepEqual(x, y)
}

// checker collects correctness failures from concurrent checks; it
// keeps the first 20 messages and counts them all.
type checker struct {
	mu       sync.Mutex
	errs     []string
	failures int
	checks   int
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) count() {
	c.mu.Lock()
	c.checks++
	c.mu.Unlock()
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failures == 0
}

// parallel runs fn(i) for i in [0, n) on two goroutines.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}
