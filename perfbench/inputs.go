package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"maest/internal/engine"
	"maest/internal/floorplan"
	"maest/internal/gen"
	"maest/internal/hdl"
	"maest/internal/netlist"
	"maest/internal/serve"
	"maest/internal/tech"
)

// Input streams.  Every generated input draws from its own stream of
// the workload seed, so the warm-up inputs never coincide with the
// measured ones and the same seed always yields the same inputs.
const (
	streamSession = iota + 1
	streamSessionOps
	streamWarmOps
	streamEco
	streamEcoWarm
	streamChips
	streamPlanSeeds
)

// subSeed derives the seed of item i of one stream.
func subSeed(seed int64, stream, i int) int64 {
	return seed*1_000_003 + int64(stream)<<36 + int64(i)
}

// designSeed draws the floorplan-anneal chips.
const designSeed = 1

// The gate-count law of the serving workloads' modules.  The 500-gate
// ceiling keeps one session-hot set-up (2048 modules populated through
// the server) near ten seconds on two cores.
const (
	minGates = 20
	maxGates = 500
)

// stratifiedGates draws a gate count from stratum i of n of the
// log-uniform law on [minGates, maxGates].
func stratifiedGates(i, n int, rng *rand.Rand) int {
	u := (float64(i) + rng.Float64()) / float64(n)
	return int(math.Round(math.Exp(math.Log(minGates) + u*math.Log(float64(maxGates)/minGates))))
}

// module is one generated circuit as a client sends it.
type module struct {
	name    string
	format  string // "mnet", "bench" or "verilog"
	text    string
	variant string           // the same mnet text with its device lines reordered ("" for other formats)
	circ    *netlist.Circuit // the generated circuit, dropped once the inputs derived from it exist
}

// request renders the module as an estimate request; variant selects
// the reordered text.
func (m *module) request(variant bool) serve.EstimateRequest {
	r := serve.EstimateRequest{Format: m.format, Netlist: m.text}
	if m.format == "bench" {
		r.Name = m.name
	}
	if variant {
		r.Netlist = m.variant
	}
	return r
}

func (m *module) congestion(variant bool) serve.CongestionRequest {
	e := m.request(variant)
	return serve.CongestionRequest{Format: e.Format, Name: e.Name, Netlist: e.Netlist}
}

func (m *module) input() serve.ModuleInput {
	e := m.request(false)
	return serve.ModuleInput{Format: e.Format, Name: e.Name, Netlist: e.Netlist}
}

// genModules builds n modules of one stream on two goroutines.  The
// seed only draws the circuits: the size of module i (log-uniform,
// stratified over blocks of strata modules) and its format are laid
// out the same for every seed, so runs under different seeds put the
// same mix of work at each popularity rank and in each prefix of
// whole blocks.  With mixed formats, one module in ten is .bench and
// one is Verilog; the rest are .mnet and carry a reordered variant.
func genModules(seed int64, stream, n, strata int, prefix string, mixed bool, p *tech.Process) ([]*module, error) {
	layout := rand.New(rand.NewSource(int64(stream)))
	gates := make([]int, n)
	for b := 0; b < n; b += strata {
		for k, j := range layout.Perm(min(strata, n-b)) {
			gates[b+k] = stratifiedGates(j, strata, layout)
		}
	}
	formats := layout.Perm(n)
	out := make([]*module, n)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				format := "mnet"
				if mixed {
					switch formats[i] % 10 {
					case 8:
						format = "bench"
					case 9:
						format = "verilog"
					}
				}
				m, err := genModule(subSeed(seed, stream, i), fmt.Sprintf("%s%d", prefix, i), gates[i], format, p)
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = m
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func genModule(seed int64, name string, gates int, format string, p *tech.Process) (*module, error) {
	rng := rand.New(rand.NewSource(seed))
	c, err := gen.RandomCircuit(gen.RandomConfig{
		Name: name, Gates: gates, Inputs: 3 + rng.Intn(8), Outputs: 2 + rng.Intn(6), Seed: seed,
	}, p)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	switch format {
	case "bench":
		err = hdl.WriteBench(&b, c)
	case "verilog":
		err = hdl.WriteVerilog(&b, c)
	default:
		err = hdl.WriteMnet(&b, c)
	}
	if err != nil {
		return nil, fmt.Errorf("render %s: %w", name, err)
	}
	m := &module{name: name, format: format, text: b.String(), circ: c}
	if format == "mnet" {
		m.variant = reorderDevices(m.text, rng)
	}
	return m, nil
}

// reorderDevices shuffles the device lines of an .mnet text: new bytes,
// the same circuit, the same canonical key.
func reorderDevices(text string, rng *rand.Rand) string {
	lines := strings.SplitAfter(text, "\n")
	first := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "device ") {
			first = i
			break
		}
	}
	if first < 0 {
		return text
	}
	last := first
	for last < len(lines) && strings.HasPrefix(lines[last], "device ") {
		last++
	}
	devs := lines[first:last]
	rng.Shuffle(len(devs), func(i, j int) { devs[i], devs[j] = devs[j], devs[i] })
	return strings.Join(lines, "")
}

// parseModule parses a request's netlist the way the server does.
func parseModule(format, name, text string, p *tech.Process) (*netlist.Circuit, error) {
	r := strings.NewReader(text)
	switch format {
	case "bench":
		if name == "" {
			name = "module"
		}
		return hdl.ParseBench(r, name, p)
	case "verilog":
		return hdl.ParseVerilog(r, p)
	default:
		return hdl.ParseMnet(r)
	}
}

// ecoScript is the chain of four delta scripts applied to an eco-cold
// module: add a buffer cell, connect a second pin to its output net,
// move that extra pin to another cell (connect one, disconnect the
// other), and remove an original cell.  Every step yields a circuit
// the server has not seen, so every answer misses; the pins removed
// are only ones the chain added, so every cell keeps the pins its
// function needs and every step is estimable.
func ecoScript(c *netlist.Circuit, rng *rand.Rand) [][]serve.EditBody {
	devs := c.Devices
	var picked []string
	pick := func() *netlist.Device {
		for {
			d := devs[rng.Intn(len(devs))]
			fresh := true
			for _, p := range picked {
				fresh = fresh && d.Name != p
			}
			if fresh {
				picked = append(picked, d.Name)
				return d
			}
		}
	}
	src := pick()
	var in string
	for _, n := range src.Pins {
		if n != nil {
			in = n.Name
			break
		}
	}
	first, second, gone := pick(), pick(), pick()
	return [][]serve.EditBody{
		{{Op: "add_cell", Name: "eco_buf", Type: "BUF", Nets: []string{in, "eco_net"}}},
		{{Op: "connect_pin", Device: first.Name, Net: "eco_net"}},
		{{Op: "connect_pin", Device: second.Name, Net: "eco_net"}, {Op: "disconnect_pin", Device: first.Name, Net: "eco_net"}},
		{{Op: "remove_cell", Name: gone.Name}},
	}
}

// ecoModule is one module of the eco-cold stream with its delta chain.
type ecoModule struct {
	*module
	script [][]serve.EditBody
}

// genEco builds n eco-cold modules (.mnet, which the delta edits name
// devices of) with their delta scripts.
func genEco(seed int64, stream, n int, prefix string, p *tech.Process) ([]*ecoModule, error) {
	ms, err := genModules(seed, stream, n, ecoStrata, prefix, false, p)
	if err != nil {
		return nil, err
	}
	out := make([]*ecoModule, n)
	for i, m := range ms {
		if len(m.circ.Devices) < 4 {
			return nil, fmt.Errorf("module %s has too few devices for an ECO chain", m.name)
		}
		out[i] = &ecoModule{module: m, script: ecoScript(m.circ, rand.New(rand.NewSource(subSeed(seed, stream, 1<<20+i))))}
		m.circ, m.variant = nil, "" // the stream never sends a reordered text
	}
	return out, nil
}

// chip is one floorplan-anneal design with its modules compiled.
type chip struct {
	name string
	mods []floorplan.PlanModule
	nets []floorplan.Net
	src  *gen.Chip
}

// genChips builds the floorplan-anneal design set: one chip per module
// count in [4, 10].  The set is the same for every workload seed —
// the seed draws the anneal seeds of the exploration — because the
// cost of an anneal move depends on how many non-dominated shape
// combinations a chip has, which varies far more between random chips
// than between runs, and a window holds only about one plan per chip.
func genChips(p *tech.Process) ([]*chip, error) {
	var out []*chip
	for n := 4; n <= 10; n++ {
		g, err := gen.RandomChip(gen.ChipConfig{
			Name: fmt.Sprintf("chip%d", n), Modules: n, MinGates: 20, MaxGates: 200,
			Seed: subSeed(designSeed, streamChips, n),
		}, p)
		if err != nil {
			return nil, err
		}
		c := &chip{name: g.Name, src: g}
		for _, m := range g.Modules {
			pl, err := engine.Compile(m, p)
			if err != nil {
				return nil, err
			}
			c.mods = append(c.mods, floorplan.PlanModule{Name: m.Name, Plan: pl})
		}
		for _, gn := range g.GlobalNets {
			nt := floorplan.Net{Name: gn.Name}
			for _, pin := range gn.Pins {
				nt.Pins = append(nt.Pins, floorplan.NetPin{Module: pin.Module, Port: pin.Port})
			}
			c.nets = append(c.nets, nt)
		}
		out = append(out, c)
	}
	return out, nil
}
