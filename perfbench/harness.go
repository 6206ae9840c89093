package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"maest/internal/client"
	"maest/internal/serve"
	"maest/internal/store"
)

// server is one maest-serve instance run the way the command runs it
// with its defaults (flight recorder 256; result, congestion and plan
// LRUs of 1024 entries; concurrency 2×GOMAXPROCS) plus a persistent
// store, bound to loopback sockets in this process.
type server struct {
	st      *store.Store
	handler *serve.Server
	api     *http.Server
	debug   *http.Server
	tr      *http.Transport
	cli     *client.Client
	dbg     string         // debug listener base URL
	serving sync.WaitGroup // the two Serve goroutines
}

func startServer(dir string) (*server, error) {
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	h := serve.New(serve.Options{FlightSize: 256, Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	dln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		st.Close()
		return nil, err
	}
	s := &server{
		st:      st,
		handler: h,
		api:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		debug:   &http.Server{Handler: h.DebugHandler(), ReadHeaderTimeout: 10 * time.Second},
		tr:      &http.Transport{MaxIdleConnsPerHost: 16},
		dbg:     "http://" + dln.Addr().String(),
	}
	s.cli = client.New("http://" + ln.Addr().String()).WithHTTPClient(&http.Client{Transport: s.tr, Timeout: 60 * time.Second})
	s.serving.Add(2)
	go s.serveOn(s.api, ln)
	go s.serveOn(s.debug, dln)
	return s, nil
}

func (s *server) serveOn(srv *http.Server, ln net.Listener) {
	defer s.serving.Done()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: listener:", err)
	}
}

// stop shuts the instance down the way maest-serve does: listeners
// first, then the write-behind queue is drained into the store, then
// the store closes.
func (s *server) stop() error {
	s.api.Close()
	s.debug.Close()
	s.serving.Wait()
	s.tr.CloseIdleConnections()
	s.handler.FlushStore()
	s.handler.FlushTraces()
	return s.st.Close()
}

// counters reads the server's /metrics counters (unlabelled series).
func (s *server) counters(ctx context.Context) (map[string]float64, error) {
	text, err := s.cli.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// flight reads the server's flight recorder from the debug listener.
func (s *server) flight(ctx context.Context) (*serve.FlightResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.dbg+"/debug/flight", nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Transport: s.tr, Timeout: 30 * time.Second}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/flight: %s", resp.Status)
	}
	var fr serve.FlightResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		return nil, fmt.Errorf("decode /debug/flight: %w", err)
	}
	return &fr, nil
}
