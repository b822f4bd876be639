package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/graphstore"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// clients is the closed loop's width: each client sends its next request
// only after the previous reply, like the CLI tools, CI scripts and typed
// clients that call the service.
const clients = 2

// server is one reprod-configured serve.Server behind a loopback
// listener, over a decision journal and a graph store in dir.
type server struct {
	st     *store.Store
	gs     *graphstore.Store
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	cache  *engine.Cache
}

// openServer opens the stores in dir and serves them as cmd/reprod does
// with -max-n 6, -cache-file and -graph-dir: every other setting is the
// server default (Parallelism = NumCPU, the default decider backend, the
// default graph-cache budget). A traced server logs into tr and runs the
// span-recording decider and graph-store wrappers.
func openServer(dir string, tr *tracer) (*server, error) {
	s := &server{}
	err := tr.timed("store.Open", func() error {
		var err error
		s.st, err = store.Open(filepath.Join(dir, "decisions.repro"))
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := tr.timed("graphstore.Open", func() error {
		var err error
		s.gs, err = graphstore.Open(filepath.Join(dir, "graphs"))
		return err
	}); err != nil {
		s.st.Close()
		return nil, err
	}
	s.cache = s.st.Cache()
	logger := obs.NewLogger(io.Discard, 0)
	cfg := serve.Config{
		Cache:      s.cache,
		Store:      s.st,
		MaxN:       analyzeMaxN,
		GraphStore: s.gs,
		Logger:     logger,
	}
	if tr != nil {
		cfg.Logger = slog.New(accessHook{logger.Handler(), tr})
		cfg.GraphStore = tracedGraphStore{s.gs}
		cfg.DefaultBackend = tracedBackend
	}
	s.srv = serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.st.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv, ReadHeaderTimeout: 5 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// teardown is the store side of a shutdown, measured for the store and
// graphstore layers.
type teardown struct {
	store      store.Stats
	closeMs    float64
	flushMs    float64
	storeBytes int64
}

// close shuts the server down in cmd/reprod's order: jobs, HTTP, graph
// flush, journal close.
func (s *server) close(tr *tracer) (teardown, error) {
	var td teardown
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := []error{s.srv.Shutdown(ctx), s.hs.Shutdown(ctx)}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	start := time.Now()
	errs = append(errs, tr.timed("graphcache.Flush", s.srv.FlushGraphs))
	td.flushMs = ms(time.Since(start))
	td.store = s.st.Stats()
	start = time.Now()
	errs = append(errs, tr.timed("store.Close", s.st.Close))
	td.closeMs = ms(time.Since(start))
	st := s.st.Stats()
	td.storeBytes = st.SnapshotBytes + st.JournalBytes
	return td, errors.Join(errs...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newClient builds one closed-loop client with its own connection pool;
// with a non-nil respBytes it counts response bytes there.
func newClient(base string, respBytes *atomic.Int64) (*client.Client, *http.Transport) {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = tp
	if respBytes != nil {
		rt = countingTransport{tp, respBytes}
	}
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: rt})), tp
}

// register POSTs the stream's protocols, checking each fingerprint.
func register(cl *client.Client, s *stream, round int) error {
	for i, d := range s.protocols {
		ctx := client.WithRequestID(context.Background(), fmt.Sprintf("r%d-reg%d", round, i))
		resp, err := cl.RegisterProtocol(ctx, d)
		if err != nil {
			return fmt.Errorf("registering protocol %d: %w", i, err)
		}
		if resp.Fingerprint != s.fingerprints[i] {
			return fmt.Errorf("protocol %d registered as %s, want %s", i, resp.Fingerprint, s.fingerprints[i])
		}
	}
	return nil
}

// outcome is one played request.
type outcome struct {
	latency time.Duration
	err     error
	// answers holds the JSON of each answer, in keys order.
	answers [][]byte
	// Job timing from the job's view, and the chain's engine time.
	queueWait, run time.Duration
	chainMs        float64
	stages         int
}

// play runs the stream to completion as a closed loop of clients.
func play(base string, s *stream, round int, tr *tracer) ([]outcome, time.Duration, int64) {
	out := make([]outcome, len(s.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var respBytes *atomic.Int64
	if tr != nil {
		respBytes = new(atomic.Int64)
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		cl, tp := newClient(base, respBytes)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tp.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.reqs) {
					return
				}
				out[i] = do(cl, &s.reqs[i], fmt.Sprintf("r%d-q%d", round, i), tr)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var bytes int64
	if respBytes != nil {
		bytes = respBytes.Load()
	}
	return out, elapsed, bytes
}

// do sends one request and collects its answers.
func do(cl *client.Client, r *request, id string, tr *tracer) outcome {
	var o outcome
	ctx := client.WithRequestID(context.Background(), id)
	start := now()
	clientSpan := func(name, req string, from time.Duration) {
		if tr != nil {
			tr.add(&span{Name: name, Req: req, Start: int64(from), End: int64(now())})
		}
	}
	switch r.kind {
	case kindAnalyze:
		resp, err := cl.Analyze(ctx, *r.analyze)
		o.latency = now() - start
		clientSpan("client.Analyze", id, start)
		if o.err = err; err == nil {
			o.answers = append(o.answers, mustJSON(resp.Analysis))
		}
	case kindCheck:
		resp, err := cl.Check(ctx, *r.check)
		o.latency = now() - start
		clientSpan("client.Check", id, start)
		if o.err = err; err != nil {
			break
		}
		if len(resp.Results) != len(r.keys) {
			o.err = fmt.Errorf("check returned %d results for %d items", len(resp.Results), len(r.keys))
			break
		}
		for _, it := range resp.Results {
			o.answers = append(o.answers, mustJSON(it))
		}
	case kindJob:
		o.err = runJob(cl, r, id, tr, start, &o)
	}
	return o
}

// runJob submits a job, follows its event stream to the terminal event
// (the job's latency), then fetches the result.
func runJob(cl *client.Client, r *request, id string, tr *tracer, start time.Duration, o *outcome) error {
	ctx := client.WithRequestID(context.Background(), id+"-s")
	v, err := cl.SubmitJob(ctx, *r.job)
	if tr != nil {
		tr.add(&span{Name: "client.SubmitJob", Req: id + "-s", Start: int64(start), End: int64(now())})
	}
	if err != nil {
		o.latency = now() - start
		return err
	}
	evID := id + "-e"
	evStart := now()
	err = cl.JobEvents(client.WithRequestID(context.Background(), evID), v.ID, func(ev client.JobEvent) error {
		if ev.Kind != "check.done" {
			return nil
		}
		var p struct {
			ElapsedMs float64 `json:"elapsedMs"`
			Detail    string  `json:"detail"`
		}
		if err := json.Unmarshal(ev.Data, &p); err != nil {
			return err
		}
		o.chainMs = p.ElapsedMs
		o.stages, _ = strconv.Atoi(strings.TrimSuffix(p.Detail, " stages"))
		if tr != nil {
			at := now()
			tr.add(&span{Name: "engine.Theorem13", Req: evID, Start: int64(at - time.Duration(p.ElapsedMs*1e6)), End: int64(at)})
		}
		return nil
	})
	o.latency = now() - start
	if tr != nil {
		tr.add(&span{Name: "client.JobEvents", Req: evID, Start: int64(evStart), End: int64(now())})
	}
	if err != nil {
		return err
	}
	view, err := cl.Job(client.WithRequestID(context.Background(), id+"-g"), v.ID)
	if err != nil {
		return err
	}
	if view.State != jobs.StateDone {
		return fmt.Errorf("job %s ended %s: %s", v.ID, view.State, view.Error)
	}
	created, _ := time.Parse(time.RFC3339Nano, view.Created)
	started, _ := time.Parse(time.RFC3339Nano, view.Started)
	finished, _ := time.Parse(time.RFC3339Nano, view.Finished)
	o.queueWait, o.run = started.Sub(created), finished.Sub(started)
	if tr != nil {
		tr.add(&span{Name: "jobs.queue", Req: evID, Start: int64(created.Sub(epoch)), End: int64(started.Sub(epoch))})
		tr.add(&span{Name: "jobs.run", Req: evID, Start: int64(started.Sub(epoch)), End: int64(finished.Sub(epoch))})
	}
	var res serve.Theorem13Response
	if err := json.Unmarshal(mustJSON(view.Result), &res); err != nil {
		return fmt.Errorf("decoding job result: %w", err)
	}
	o.answers = append(o.answers, mustJSON(res))
	return nil
}

// mustJSON marshals a value decoded from JSON or built from plain
// structs, which cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// scrapeMetric sums the samples of one /metrics series whose line starts
// with prefix (name plus labels).
func scrapeMetric(base, prefix string) (float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var sum float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return 0, err
			}
			sum += v
		}
	}
	return sum, sc.Err()
}

// rssSampler tracks the process's peak resident set while running.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := rssBytes(); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak in bytes.
func (s *rssSampler) finish() int64 {
	close(s.stop)
	<-s.done
	if v := rssBytes(); v > s.peak {
		s.peak = v
	}
	return s.peak
}

// rssBytes reads the resident set size from /proc/self/statm (0 where
// it is unavailable).
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// settle collects the previous round's garbage before the next round
// starts. It does not return the memory to the OS: re-faulting the heap
// in every round made rounds slower and much noisier.
func settle() {
	runtime.GC()
}

// totalAlloc reads the runtime's cumulative allocated bytes.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
