// Command perfbench is the maest benchmark.  It generates seeded
// inputs, drives one workload through the program's public entry
// points, checks every answer against the engine in process, and
// prints the workload's metrics, ending with one JSON line.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload session-hot --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	session-hot       closed loop, 2 clients, over loopback HTTP: a
//	                  read-only interactive session over 2048 modules
//	                  (twice the server's 1024-entry LRUs), Zipf access.
//	eco-cold          closed loop, 2 clients, over loopback HTTP: never
//	                  seen modules, each estimated, analysed for
//	                  congestion and edited by four delta scripts.
//	floorplan-anneal  one goroutine in process: PlanModules over
//	                  compiled 4–10-module chips under fresh seeds.
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that measures the per-layer metrics and writes its spans
// to the work directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"maest/internal/serve"
)

// workload is one benchmark workload.
type workload interface {
	// setup builds the workload's inputs and warms the program; it is
	// timed, and may be called again to measure it again.
	setup(dir string) error
	window(dur time.Duration, tr *tracer) window
	check(ctx context.Context) *checker
	// replay replays the traced window's requests layer by layer; fr
	// is the server's flight recorder after the window (nil in process).
	replay(ctx context.Context, t *tracer, dir string, fr *serve.FlightResponse, m map[string]float64) (map[string]stages, error)
	server() *server // nil when the workload runs in process
	close() error
}

func (s *sessionHot) server() *server { return s.srv }
func (e *ecoCold) server() *server    { return e.srv }

func (f *floorplanAnneal) server() *server        { return nil }
func (f *floorplanAnneal) close() error           { return nil }
func (f *floorplanAnneal) setup(dir string) error { return f.setupChips() }

// An end-to-end run sets up at least minSetups times, and again until
// minSetupTime of set-up has been measured; setup_s is the median.  A
// set-up of a tenth of a second varies by a third between runs on a
// shared machine, so a cheap set-up is repeated more.
const (
	minSetups    = 3
	minSetupTime = 2 * time.Second
)

func main() {
	name := flag.String("workload", "", "session-hot, eco-cold or floorplan-anneal")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for stores and span files")
	flag.Parse()
	os.Exit(run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *work))
}

// newWorkload answers the named workload set up for the given number
// of measured windows (two in the traced run).
func newWorkload(name string, seed int64, windows int) workload {
	switch name {
	case "session-hot":
		return newSessionHot(seed)
	case "eco-cold":
		return newEcoCold(seed, windows)
	case "floorplan-anneal":
		return newFloorplanAnneal(seed)
	}
	return nil
}

func run(name string, seed int64, dur time.Duration, traced bool, work string) int {
	windows := 1
	if traced {
		windows = 2
	}
	wl := newWorkload(name, seed, windows)
	if wl == nil || dur <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", name)
		return 2
	}
	dir := filepath.Join(work, fmt.Sprintf("%s-seed%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	defer wl.close()
	ctx := context.Background()

	reps := minSetups
	if traced {
		reps = 1
	}
	var setups []float64
	for k, total := 0, 0.0; k < reps || (!traced && total < minSetupTime.Seconds()); k++ {
		t0 := time.Now()
		if err := wl.setup(filepath.Join(dir, fmt.Sprintf("setup%d", k))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[k]
		if k > 0 {
			os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup%d", k-1)))
		}
	}
	fmt.Printf("perfbench %s seed=%d window=%s GOMAXPROCS=%d setups=%d median=%.4fs\n", name, seed, dur, runtime.GOMAXPROCS(0), len(setups), Median(setups))

	if traced {
		m, chk, tr, w, err := tracedRun(ctx, wl, dur, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
			return 1
		}
		path := filepath.Join(work, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
		out := map[string]metric{}
		for _, pl := range perLayer {
			out[pl.name] = metric{Value: m[pl.name], Unit: pl.unit}
			fmt.Printf("  %-34s %14.4f %s\n", pl.name, m[pl.name], pl.unit)
		}
		return finish(chk, w, out)
	}

	w := wl.window(dur, nil)
	chk := wl.check(ctx)
	lat := Summarize(w.lat)
	m := map[string]metric{
		"setup_s":              {Median(setups), "s"},
		"throughput_ops_per_s": {ratio(float64(w.ops), w.elapsed.Seconds()), "1/s"},
		"latency_p50_us":       {lat.P50, "us"},
		"latency_p99_us":       {lat.P99, "us"},
		"cpu_us_per_op":        {ratio(us(w.cpu), float64(w.ops)), "us"},
		"peak_rss_mb":          {w.rssPeakMiB, "MiB"},
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-22s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("  %-22s %14.4f (%d of %d failed, %d answered 429)\n", "error_rate",
		ratio(float64(w.failed), float64(w.attempted)), w.failed, w.attempted, w.rejected)
	fmt.Printf("  latency samples n=%d (p99 has %d samples beyond it)\n", lat.N, lat.N-int(math.Ceil(0.99*float64(lat.N))))
	if f, ok := wl.(*floorplanAnneal); ok {
		var plans []float64
		for _, r := range f.runs {
			plans = append(plans, float64(r.dur.Nanoseconds())/1e6)
		}
		fmt.Printf("  %-22s %14.4f ms (n=%d plans)\n", "plan_ms_p50", Median(plans), len(plans))
		fmt.Printf("  %-22s %14.4f moves/s\n", "moves_per_s", ratio(float64(w.ops), w.elapsed.Seconds()))
		fmt.Printf("  %-22s %14.4f\n", "anneal_cost_ratio", f.costRatio())
	}
	return finish(chk, w, m)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the correctness verdict and the result line, and
// answers the exit code: non-zero on any wrong answer and on any
// failed request (none is expected on these workloads, and a request
// that fails fast would otherwise leave no latency sample and look
// like a speed-up).
func finish(chk *checker, w window, m map[string]metric) int {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
	for _, e := range chk.errs {
		fmt.Println("MISMATCH:", e)
	}
	fmt.Printf("correctness: %d answers checked against the engine, %d mismatches; %d of %d requests failed\n",
		chk.checks, chk.failures, w.failed, w.attempted)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{chk.ok() && w.attempted > 0 && w.failed == 0, max(w.attempted, 1), w.failed, m}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}
