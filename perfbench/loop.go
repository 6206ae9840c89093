package main

import (
	"errors"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"maest/internal/client"
)

// serveClients is the closed-loop client count of the serving workloads:
// two, or fewer on a machine with fewer CPUs, so the load never runs
// more client goroutines than there are CPUs.
var serveClients = min(2, runtime.NumCPU())

// window is what one timed closed-loop window measured.
type window struct {
	lat                         []float64 // µs per successful operation
	attempted, failed, rejected int
	ops                         int // operations completed
	elapsed                     time.Duration
	cpu                         time.Duration
	rssPeakMiB                  float64
	allocBytes                  uint64
	gcCycles                    uint32
}

// worker is one closed-loop client: it sends its next request only
// after the previous one has been answered.
type worker struct {
	deadline                    time.Time
	lat                         []float64
	ops                         int
	attempted, failed, rejected int
	tr                          *tracer   // nil outside the traced window
	req                         *reqTrace // the request being traced, if any
}

func (w *worker) live() bool { return time.Now().Before(w.deadline) }

// call times one request.  Failures — transport errors and any non-2xx
// answer, 429 included — are counted and leave no latency sample.
func (w *worker) call(fn func() error) (start time.Time, d time.Duration, err error) {
	w.attempted++
	start = time.Now()
	err = fn()
	d = time.Since(start)
	w.req.client(start, d)
	if err != nil {
		w.failed++
		var api *client.APIError
		if errors.As(err, &api) && api.Status == http.StatusTooManyRequests {
			w.rejected++
		}
		return start, d, err
	}
	w.ops++
	w.lat = append(w.lat, float64(d.Nanoseconds())/1e3)
	return start, d, nil
}

// runWindow runs body in a closed loop on clients goroutines for dur
// and gathers what the process spent meanwhile.  The heap is collected
// and returned to the OS first, so memory left by the set-ups does not
// count against the window.
func runWindow(clients int, dur time.Duration, tr *tracer, body func(w *worker)) window {
	runtime.GC()
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()

	stop := make(chan struct{})
	peak := make(chan float64)
	go func() {
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		max := rssMiB()
		for {
			select {
			case <-stop:
				peak <- max
				return
			case <-tick.C:
				if v := rssMiB(); v > max {
					max = v
				}
			}
		}
	}()

	t0 := time.Now()
	ws := make([]*worker, clients)
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = &worker{deadline: t0.Add(dur), tr: tr}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for w.live() {
				body(w)
			}
		}(ws[i])
	}
	wg.Wait()
	out := window{elapsed: time.Since(t0), cpu: cpuTime() - cpu0}
	close(stop)
	out.rssPeakMiB = <-peak
	runtime.ReadMemStats(&m1)
	out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	out.gcCycles = m1.NumGC - m0.NumGC
	for _, w := range ws {
		out.lat = append(out.lat, w.lat...)
		out.ops += w.ops
		out.attempted += w.attempted
		out.failed += w.failed
		out.rejected += w.rejected
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMiB is the process's resident set size now, from /proc/self/statm.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
