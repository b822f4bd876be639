// Command perfbench is the repository benchmark: it serves internal/serve
// behind a loopback listener, configured as cmd/reprod deploys it with
// -max-n 6, a decision journal and a graph store, and drives it through
// internal/client as a closed loop of two clients playing a fixed,
// seeded request stream to completion.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload analyze-n6 --seed 1 --seconds 20 --trace 0
//
// Workloads: analyze-n6, check-quota, restart (see design.json for why
// each exists and which metric each layer should move). A run repeats
// rounds, each on a fresh server and fresh stores, until --seconds have
// passed, then checks every answer. With --trace 0 it prints the
// end-to-end metrics, with --trace 1 the per-layer metrics of traced
// rounds (alternating with untraced ones, which give the tracing
// overhead) and writes the spans to .bench_out/. The last line of
// standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/graphstore"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "analyze-n6, check-quota or restart")
	seed := fs.Uint64("seed", 1, "stream seed")
	seconds := fs.Int("seconds", 20, "how long to repeat rounds")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from traced rounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	res, err := runWorkload(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, fullSizes)
	if err != nil {
		return err
	}
	return res.print(os.Stdout)
}

// minRounds is the fewest rounds a run plays, so medians exist; a
// traced run plays one more, so it has two traced and two untraced.
const minRounds = 3

// runWorkload generates the workload's stream, plays rounds until the
// time is up, checks every answer and computes the metrics.
func runWorkload(name string, seed uint64, seconds time.Duration, traced bool, sz sizes) (*result, error) {
	work, err := filepath.Abs(filepath.Join(".bench_out", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var s *stream
	var seedDir string
	var ref map[string][]byte
	var walkBytes float64
	switch name {
	case "analyze-n6":
		s, err = analyzeStream(seed, sz)
	case "check-quota":
		s, err = checkStream(seed, sz)
	case "restart":
		s, err = restartStream(seed, sz)
		if err == nil {
			seedDir = filepath.Join(work, "prefill")
			ref, walkBytes, err = prefill(seedDir, s)
		}
	default:
		err = fmt.Errorf("unknown --workload %q (valid: analyze-n6, check-quota, restart)", name)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		if err := registerTracedDecider(); err != nil {
			return nil, err
		}
	}

	res := &result{workload: name, seed: seed, traced: traced, s: s}
	deadline := time.Now().Add(seconds)
	least := minRounds
	if traced {
		least++
	}
	for r := 0; r < least || time.Now().Before(deadline); r++ {
		rr, err := playRound(s, r, traced && r%2 == 1, work, seedDir)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		res.rounds = append(res.rounds, rr)
	}

	if ref == nil {
		if ref, walkBytes, err = reference(s, nil, nil); err != nil {
			return nil, fmt.Errorf("computing reference answers: %w", err)
		}
	}
	res.walkBytes = walkBytes
	outs := make([][]outcome, len(res.rounds))
	for i, rr := range res.rounds {
		outs[i] = rr.outs
	}
	res.failed, res.problems = grade(s, outs, ref)
	res.problems = append(res.problems, witnessProblems(s, ref)...)
	res.problems = append(res.problems, checkProblems(s, ref)...)
	if name == "restart" {
		res.problems = append(res.problems, restartProblems(res.rounds)...)
	}
	if traced {
		var spans []*span
		for _, rr := range res.rounds {
			spans = append(spans, rr.spans...)
		}
		path := filepath.Join(".bench_out", fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := writeSpans(path, labels(seed), spans); err != nil {
			return nil, err
		}
		res.spansPath = path
	}
	return res, nil
}

// prefill fills restart's journal and graph store in dir with every key
// the replay touches, computing them with a fresh private engine on the
// search backend, whose answers are the replay's reference; then closes
// both stores cleanly.
func prefill(dir string, s *stream) (map[string][]byte, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	st, err := store.Open(filepath.Join(dir, "decisions.repro"))
	if err != nil {
		return nil, 0, err
	}
	gs, err := graphstore.Open(filepath.Join(dir, "graphs"))
	if err != nil {
		st.Close()
		return nil, 0, err
	}
	ref, walkBytes, err := reference(s, st.Cache(), gs)
	if err = errors.Join(err, st.Close()); err != nil {
		return nil, 0, fmt.Errorf("pre-filling stores: %w", err)
	}
	return ref, walkBytes, nil
}

// restartProblems asserts restart's design: no level decider runs and
// no crash-free first touch expands a graph node.
func restartProblems(rounds []*roundResult) []string {
	var problems []string
	for i, rr := range rounds {
		if runs := deciderRuns(rr.stats); runs != 0 {
			problems = append(problems, fmt.Sprintf("round %d: %d decider runs on restart", i, runs))
		}
		if rr.stats.Graph.Expanded != 0 {
			problems = append(problems, fmt.Sprintf("round %d: %d graph nodes expanded on restart", i, rr.stats.Graph.Expanded))
		}
	}
	return problems
}

func deciderRuns(st *serve.StatsResponse) uint64 {
	var n uint64
	for _, v := range st.Deciders {
		n += v
	}
	return n
}

// roundResult is one round: set-up, the timed stream, and teardown.
type roundResult struct {
	round      int
	traced     bool
	setup      time.Duration
	streamTime time.Duration
	outs       []outcome
	alloc      uint64
	peakRSS    int64
	stats      *serve.StatsResponse
	td         teardown
	spans      []*span
	respBytes  int64
	// resolveSum and resolveCount are the engine's graph-resolve
	// histogram totals, from /metrics.
	resolveSum, resolveCount float64
}

// playRound runs one round on a fresh server over fresh stores (copies
// of seedDir, when set).
func playRound(s *stream, round int, traced bool, work, seedDir string) (*roundResult, error) {
	dir := filepath.Join(work, fmt.Sprintf("round%d", round))
	copyErr := os.MkdirAll(dir, 0o755)
	if seedDir != "" && copyErr == nil {
		copyErr = copyTree(seedDir, dir)
	}
	defer os.RemoveAll(dir)
	if copyErr != nil {
		return nil, copyErr
	}
	settle()
	var tr *tracer
	if traced {
		tr = &tracer{round: round}
		current.Store(tr)
		defer current.Store(nil)
	}
	rr := &roundResult{round: round, traced: traced}

	start := time.Now()
	srv, err := openServer(dir, tr)
	if err != nil {
		return nil, err
	}
	cl, tp := newClient(srv.base, nil)
	err = register(cl, s, round)
	rr.setup = time.Since(start)
	if err == nil {
		allocBefore := totalAlloc()
		rss := startRSS()
		rr.outs, rr.streamTime, rr.respBytes = play(srv.base, s, round, tr)
		rr.peakRSS = rss.finish()
		rr.alloc = totalAlloc() - allocBefore
		rr.stats, err = cl.Stats(context.Background())
	}
	if err == nil && traced {
		const h = "reprod_engine_graph_duration_seconds"
		rr.resolveSum, err = scrapeMetric(srv.base, h+`_sum{phase="resolve"}`)
		if err == nil {
			rr.resolveCount, err = scrapeMetric(srv.base, h+`_count{phase="resolve"}`)
		}
	}
	tp.CloseIdleConnections()
	td, cerr := srv.close(tr)
	if err = errors.Join(err, cerr); err != nil {
		return nil, err
	}
	rr.td = td
	if tr != nil {
		rr.spans = tr.snapshot()
		link(rr.spans)
	}
	return rr, nil
}

// result is a finished run.
type result struct {
	workload  string
	seed      uint64
	traced    bool
	s         *stream
	rounds    []*roundResult
	failed    int
	problems  []string
	walkBytes float64
	spansPath string
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

func (r *result) attempted() int { return len(r.s.reqs) * len(r.rounds) }

// print writes the labelled report, then the result line.
func (r *result) print(w io.Writer) error {
	ls := labels(r.seed)
	for _, k := range sortedKeys(ls) {
		fmt.Fprintf(w, "label %s %s\n", k, ls[k])
	}
	first, quota, job := r.s.shares()
	fmt.Fprintf(w, "stream workload=%s digest=%s requests=%d (%s) first_touch_share=%.4f quota_share=%.4f job_share=%.4f rounds=%d\n",
		r.workload, r.s.digest(), len(r.s.reqs), r.s.describe(), first, quota, job, len(r.rounds))
	for _, rr := range r.rounds {
		fmt.Fprintf(w, "round %d traced=%v setup_s=%.6f stream_s=%.4f rps=%.3f\n",
			rr.round, rr.traced, rr.setup.Seconds(), rr.streamTime.Seconds(), float64(len(rr.outs))/rr.streamTime.Seconds())
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "problem %s\n", p)
	}
	var metrics map[string]metric
	if r.traced {
		metrics = r.layerMetrics()
		for _, line := range r.selfTable() {
			fmt.Fprintln(w, line)
		}
		fmt.Fprintf(w, "spans %s\n", r.spansPath)
	} else {
		metrics = r.endToEnd()
	}
	for _, k := range sortedKeys(metrics) {
		m := metrics[k]
		fmt.Fprintf(w, "metric %s %s %s%s\n", k, formatValue(m.Value), m.Unit, m.note)
	}
	// Report-only metrics are printed above; the result line carries the
	// ones BENCHMARK.json names.
	out := make(map[string]metric)
	for _, name := range contractMetrics(r.traced) {
		m, ok := metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", name)
		}
		out[name] = m
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0 && len(r.problems) == 0,
		"attempted": r.attempted(),
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// endToEnd computes the user-visible metrics from the untraced rounds.
func (r *result) endToEnd() map[string]metric {
	var setups, rps, allocs, rss []float64
	lat := make(map[string][]float64)
	for _, rr := range r.rounds {
		if rr.traced {
			continue
		}
		setups = append(setups, rr.setup.Seconds())
		rps = append(rps, float64(len(rr.outs))/rr.streamTime.Seconds())
		allocs = append(allocs, float64(rr.alloc)/float64(len(rr.outs))/1024)
		rss = append(rss, float64(rr.peakRSS)/(1<<20))
		for i, o := range rr.outs {
			v := ms(o.latency)
			lat[""] = append(lat[""], v)
			lat[r.s.reqs[i].kind.String()+"."] = append(lat[r.s.reqs[i].kind.String()+"."], v)
		}
	}
	out := map[string]metric{
		"setup_s":          {Value: median(setups), Unit: "s", note: roundsNote(len(setups))},
		"throughput_rps":   {Value: median(rps), Unit: "1/s", note: roundsNote(len(rps))},
		"alloc_kb_per_req": {Value: median(allocs), Unit: "KiB", note: roundsNote(len(allocs))},
		"peak_rss_mb":      {Value: median(rss), Unit: "MiB", note: roundsNote(len(rss))},
		"error_rate":       {Value: float64(r.failed) / float64(r.attempted()), Unit: "ratio"},
	}
	for prefix, xs := range lat {
		p50, _ := percentile(xs, 0.50)
		out[prefix+"latency_p50_ms"] = metric{Value: p50, Unit: "ms", note: fmt.Sprintf(" (p50 of %d samples)", len(xs))}
		if prefix == "job." {
			continue
		}
		p99, q := percentile(xs, 0.99)
		out[prefix+"latency_p99_ms"] = metric{Value: p99, Unit: "ms", note: fmt.Sprintf(" (p%.4g of %d samples)", 100*q, len(xs))}
	}
	return out
}

func roundsNote(n int) string { return fmt.Sprintf(" (median of %d rounds)", n) }

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs, lowering q to
// the highest quantile that leaves at least ten samples beyond it; it
// returns the quantile used.
func percentile(xs []float64, q float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, q
	}
	n := float64(len(xs))
	if n*(1-q) < 10 {
		q = math.Max(0.5, 1-10/n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*n)) - 1
	return s[max(i, 0)], q
}

// labels stamps every output with where and on what it was measured.
func labels(seed uint64) map[string]string {
	return map[string]string{
		"cpu":        cpuModel(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
		"seed":       fmt.Sprint(seed),
	}
}

// contractMetrics lists the metrics the result line carries.
func contractMetrics(traced bool) []string {
	if !traced {
		return []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_p99_ms", "alloc_kb_per_req", "peak_rss_mb"}
	}
	names := make([]string, 0, len(layerUnits))
	for _, lu := range layerUnits {
		names = append(names, lu.name)
	}
	return names
}
