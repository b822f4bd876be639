package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/spec"
	"repro/internal/types"
)

// zoo is the analysis corpus shared by the equivalence tests: readable
// and non-readable, bounded and unbounded, small and multi-level types.
func zoo() []*spec.FiniteType {
	return []*spec.FiniteType{
		types.Register(2),
		types.TestAndSet(),
		types.Swap(2),
		types.FetchAdd(3),
		types.CompareAndSwap(2),
		types.StickyBit(),
		types.Queue(2),
		types.PeekQueue(2),
		types.Stack(2),
		types.Counter(3),
		types.MaxRegister(3),
		types.Tnn(4, 2),
		types.TnnReadable(4),
		types.XFour(),
		types.Product(types.TestAndSet(), types.Register(2)),
		types.Trivial(),
	}
}

// sameAnalysis compares every externally observable field of two
// analyses of the same type.
func sameAnalysis(t *testing.T, name string, got, want *core.Analysis) {
	t.Helper()
	if got.ConsensusNumber != want.ConsensusNumber {
		t.Errorf("%s: cons=%d, want %d", name, got.ConsensusNumber, want.ConsensusNumber)
	}
	if got.RecoverableConsensusNumber != want.RecoverableConsensusNumber {
		t.Errorf("%s: rcons=%d, want %d", name, got.RecoverableConsensusNumber, want.RecoverableConsensusNumber)
	}
	if got.Readable != want.Readable || got.MaxN != want.MaxN {
		t.Errorf("%s: readable/maxN mismatch", name)
	}
	for n := 2; n <= want.MaxN; n++ {
		if got.Discerning[n] != want.Discerning[n] {
			t.Errorf("%s: discerning[%d]=%v, want %v", name, n, got.Discerning[n], want.Discerning[n])
		}
		if got.Recording[n] != want.Recording[n] {
			t.Errorf("%s: recording[%d]=%v, want %v", name, n, got.Recording[n], want.Recording[n])
		}
		if (got.DiscerningWitness[n] != nil) != want.Discerning[n] {
			t.Errorf("%s: discerning witness presence at n=%d wrong", name, n)
		}
		if (got.RecordingWitness[n] != nil) != want.Recording[n] {
			t.Errorf("%s: recording witness presence at n=%d wrong", name, n)
		}
	}
}

// TestParallelMatchesSerial is the acceptance gate: a parallel engine
// produces the same Analysis as the serial core facade on the full zoo.
func TestParallelMatchesSerial(t *testing.T) {
	const maxN = 4
	eng := New(WithParallelism(runtime.NumCPU()), WithMaxN(maxN))
	for _, ft := range zoo() {
		want, err := core.Analyze(ft, maxN)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Analyze(ft)
		if err != nil {
			t.Fatal(err)
		}
		sameAnalysis(t, ft.Name(), got, want)
	}
}

// TestAnalyzeAllMatchesSerial checks the flattened many-type pool run.
func TestAnalyzeAllMatchesSerial(t *testing.T) {
	const maxN = 3
	ts := zoo()
	eng := New(WithParallelism(4), WithMaxN(maxN))
	got, err := eng.AnalyzeAll(ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ts) {
		t.Fatalf("got %d analyses for %d types", len(got), len(ts))
	}
	for i, ft := range ts {
		want, err := core.Analyze(ft, maxN)
		if err != nil {
			t.Fatal(err)
		}
		sameAnalysis(t, ft.Name(), got[i], want)
	}
}

// TestOptions is the table-driven options check.
func TestOptions(t *testing.T) {
	cache := NewCache()
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		opts  []Option
		check func(t *testing.T, e *Engine)
	}{
		{"defaults", nil, func(t *testing.T, e *Engine) {
			if e.parallelism != runtime.NumCPU() {
				t.Errorf("parallelism=%d, want NumCPU", e.parallelism)
			}
			if e.maxN != 5 || e.cache == nil || e.ctx != context.Background() {
				t.Error("unexpected defaults")
			}
		}},
		{"parallelism-clamped", []Option{WithParallelism(-3)}, func(t *testing.T, e *Engine) {
			if e.parallelism != 1 {
				t.Errorf("parallelism=%d, want 1", e.parallelism)
			}
		}},
		{"explicit", []Option{WithContext(ctx), WithParallelism(7), WithMaxN(3),
			WithBudget(1234), WithCache(cache)}, func(t *testing.T, e *Engine) {
			if e.parallelism != 7 || e.maxN != 3 || e.budget != 1234 || e.cache != cache {
				t.Error("options not applied")
			}
		}},
		{"nil-cache-replaced", []Option{WithCache(nil)}, func(t *testing.T, e *Engine) {
			if e.cache == nil {
				t.Error("nil cache not replaced")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, New(tc.opts...)) })
	}
}

// TestBadMaxN checks that an out-of-range limit errors at analyze time.
func TestBadMaxN(t *testing.T) {
	eng := New(WithMaxN(1))
	if _, err := eng.Analyze(types.TestAndSet()); err == nil {
		t.Error("Analyze with maxN=1 should fail")
	}
	if _, err := eng.AnalyzeAll(zoo()); err == nil {
		t.Error("AnalyzeAll with maxN=1 should fail")
	}
	if _, err := eng.AnalyzeTo(types.TestAndSet(), 0); err == nil {
		t.Error("AnalyzeTo with maxN=0 should fail")
	}
}

// TestCancellation covers the cancellation paths: pre-canceled contexts
// fail fast everywhere, and a deadline interrupts a long level search.
func TestCancellation(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	eng := New(WithContext(canceled))
	if _, err := eng.Analyze(types.TestAndSet()); !errors.Is(err, context.Canceled) {
		t.Errorf("Analyze on canceled ctx: err=%v, want Canceled", err)
	}
	if _, err := eng.AnalyzeAll(zoo()); !errors.Is(err, context.Canceled) {
		t.Errorf("AnalyzeAll on canceled ctx: err=%v, want Canceled", err)
	}
	if _, err := eng.Check(proto.NewCASRecoverable(2),
		CheckRequest{Inputs: []int{0, 1}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Check on canceled ctx: err=%v, want Canceled", err)
	}
	if _, err := eng.Theorem13(proto.NewCASRecoverable(2),
		CheckRequest{Inputs: []int{0, 1}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Theorem13 on canceled ctx: err=%v, want Canceled", err)
	}

	// A deadline mid-search: XFive at n=7 is far beyond the deadline, so
	// the decider's per-assignment poll must surface DeadlineExceeded.
	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	deadlined := New(WithContext(ctx), WithMaxN(7), WithParallelism(2))
	start := time.Now()
	_, err := deadlined.Analyze(types.XFive())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline analysis: err=%v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %s, want well under the full search time", elapsed)
	}
}

// TestCacheHits checks that a second Analyze of the same type is served
// from the cache, including across distinct (but structurally equal)
// type instances and across engines sharing a cache.
func TestCacheHits(t *testing.T) {
	cache := NewCache()
	eng := New(WithMaxN(3), WithCache(cache))
	if _, err := eng.Analyze(types.TestAndSet()); err != nil {
		t.Fatal(err)
	}
	hits0, misses0, entries0 := cache.Stats()
	if hits0 != 0 || misses0 != 4 || entries0 != 4 {
		t.Fatalf("first analysis: hits=%d misses=%d entries=%d, want 0/4/4", hits0, misses0, entries0)
	}
	// A fresh instance of the same structural type must hit every level.
	if _, err := eng.Analyze(types.TestAndSet()); err != nil {
		t.Fatal(err)
	}
	hits1, misses1, _ := cache.Stats()
	if hits1 != 4 || misses1 != misses0 {
		t.Errorf("second analysis: hits=%d misses=%d, want 4 hits and no new misses", hits1, misses1)
	}
	// A second engine sharing the cache also hits.
	other := New(WithMaxN(3), WithCache(cache))
	if _, err := other.Analyze(types.TestAndSet()); err != nil {
		t.Fatal(err)
	}
	hits2, _, _ := cache.Stats()
	if hits2 != 8 {
		t.Errorf("shared-cache engine: hits=%d, want 8", hits2)
	}
	// Cached results carry the same witnesses semantics.
	a, err := other.Analyze(types.TestAndSet())
	if err != nil {
		t.Fatal(err)
	}
	if a.ConsensusNumber != 2 || a.RecoverableConsensusNumber != 1 {
		t.Errorf("cached TAS analysis: cons=%d rcons=%d, want 2/1",
			a.ConsensusNumber, a.RecoverableConsensusNumber)
	}
	cache.Purge()
	if _, _, entries := cache.Stats(); entries != 0 {
		t.Error("purge left entries behind")
	}
}

// TestCacheSingleflight checks that concurrent requests for one key
// share a single computation instead of racing to redo it.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	k := propKey{fp: 42, prop: Discerning, n: 3}
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func() (propResult, error) {
		if computes.Add(1) == 1 {
			close(started)
		}
		<-release
		return propResult{ok: true}, nil
	}
	const callers = 8
	var wg sync.WaitGroup
	results := make([]bool, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, _, err := c.do(context.Background(), k, compute)
			if err != nil {
				t.Error(err)
			}
			results[g] = res.ok
		}(g)
	}
	<-started // one computer is in flight; the rest must wait, not compute
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times for one key, want 1", n)
	}
	for g, ok := range results {
		if !ok {
			t.Errorf("caller %d got wrong result", g)
		}
	}
	// A waiter's own deadline bounds its wait on someone else's
	// computation: it must not hang until the computer finishes.
	kw := propKey{fp: 44, prop: Discerning, n: 5}
	slowStarted := make(chan struct{})
	slowRelease := make(chan struct{})
	computing := make(chan struct{})
	go func() {
		defer close(computing)
		c.do(context.Background(), kw, func() (propResult, error) {
			close(slowStarted)
			<-slowRelease
			return propResult{ok: true}, nil
		})
	}()
	<-slowStarted
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	_, _, werr := c.do(wctx, kw, func() (propResult, error) {
		t.Error("waiter must not compute while another call is in flight")
		return propResult{}, nil
	})
	wcancel()
	if !errors.Is(werr, context.DeadlineExceeded) {
		t.Errorf("deadlined waiter: err=%v, want DeadlineExceeded", werr)
	}
	close(slowRelease)
	<-computing

	// A failed compute is not memoized; the next caller retries.
	ke := propKey{fp: 43, prop: Recording, n: 2}
	if _, _, err := c.do(context.Background(), ke, func() (propResult, error) {
		return propResult{}, context.Canceled
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("compute error not propagated: %v", err)
	}
	res, cached, err := c.do(context.Background(), ke, func() (propResult, error) {
		return propResult{ok: true}, nil
	})
	if err != nil || cached || !res.ok {
		t.Errorf("retry after failed compute: res=%+v cached=%v err=%v", res, cached, err)
	}
}

// TestWitnessIsolation checks that mutating a returned witness cannot
// corrupt the cache: later analyses of the same type must see the
// original witness, not the caller's edits.
func TestWitnessIsolation(t *testing.T) {
	eng := New(WithMaxN(3))
	a1, err := eng.Analyze(types.TestAndSet())
	if err != nil {
		t.Fatal(err)
	}
	w1 := a1.DiscerningWitness[2]
	if w1 == nil {
		t.Fatal("TAS should have a 2-discerning witness")
	}
	saved := append([]int(nil), w1.Teams...)
	for i := range w1.Teams {
		w1.Teams[i] = 99 // caller vandalizes the returned slice
	}
	w1.Ops[0] = 77
	a2, err := eng.Analyze(types.TestAndSet()) // cache hit
	if err != nil {
		t.Fatal(err)
	}
	w2 := a2.DiscerningWitness[2]
	if w2 == w1 {
		t.Fatal("cache served the caller's witness pointer")
	}
	for i, v := range saved {
		if w2.Teams[i] != v {
			t.Fatalf("cached witness corrupted by caller mutation: teams=%v, want %v", w2.Teams, saved)
		}
	}
}

// TestProgressEvents checks emission order, kinds and the Cached flag.
func TestProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	eng := New(WithMaxN(3), WithParallelism(4), WithProgress(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	if _, err := eng.Analyze(types.TestAndSet()); err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 { // start + 4 levels + done
		t.Fatalf("got %d events, want 6: %+v", len(events), events)
	}
	if events[0].Kind != "analyze.start" || events[len(events)-1].Kind != "analyze.done" {
		t.Errorf("bad event bracketing: first=%s last=%s", events[0].Kind, events[len(events)-1].Kind)
	}
	levels := 0
	for _, ev := range events[1 : len(events)-1] {
		if ev.Kind != "level.done" || ev.Cached {
			t.Errorf("unexpected mid event %+v", ev)
		}
		levels++
	}
	if levels != 4 {
		t.Errorf("got %d level events, want 4", levels)
	}
	events = nil
	if _, err := eng.Analyze(types.TestAndSet()); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Kind == "level.done" && !ev.Cached {
			t.Errorf("second analysis level event not cached: %+v", ev)
		}
	}
}

// TestCheckAndTheorem13 drives the model checker through the engine,
// and checks that every chain.stage event carries its stage's time.
func TestCheckAndTheorem13(t *testing.T) {
	var stages []Event
	eng := New(WithProgress(func(ev Event) {
		if ev.Kind == "chain.stage" {
			stages = append(stages, ev)
		}
	}))
	pr := proto.NewCASRecoverable(2)
	res, err := eng.Check(pr, CheckRequest{Inputs: []int{0, 1}, CrashQuota: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("CAS recoverable should check clean: %v", res.Violations)
	}
	chain, err := eng.Theorem13(pr, CheckRequest{Inputs: []int{0, 1}, CrashQuota: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !chain.Recording {
		t.Error("chain should reach an n-recording configuration")
	}
	if len(stages) != len(chain.Stages) {
		t.Fatalf("%d chain.stage events for %d stages", len(stages), len(chain.Stages))
	}
	for _, ev := range stages {
		if ev.Elapsed <= 0 {
			t.Errorf("chain.stage %d: Elapsed = %v, want > 0", ev.N, ev.Elapsed)
		}
	}
}

// TestBudgetTruncates checks WithBudget maps onto exploration truncation.
func TestBudgetTruncates(t *testing.T) {
	eng := New(WithBudget(3))
	res, err := eng.Check(proto.NewCASRecoverable(3), CheckRequest{Inputs: []int{0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("a 3-node budget must truncate the exploration")
	}
	// A per-request override beats the engine budget.
	res, err = eng.Check(proto.NewCASRecoverable(2),
		CheckRequest{Inputs: []int{0, 1}, MaxNodes: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Error("request-level MaxNodes override ignored")
	}
}

// TestResolve checks descriptor parsing and the unknown-name error.
func TestResolve(t *testing.T) {
	eng := New()
	ft, err := eng.Resolve("tnn:5,2")
	if err != nil {
		t.Fatal(err)
	}
	if !ft.Equal(types.Tnn(5, 2)) {
		t.Error("resolved tnn:5,2 differs from types.Tnn(5,2)")
	}
	_, err = eng.Resolve("nosuchtype")
	if err == nil {
		t.Fatal("unknown descriptor should fail")
	}
	for _, name := range []string{"tas", "tnn", "x4", "product"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-descriptor error should list %q: %v", name, err)
		}
	}
}

// TestConcurrentEngineUse hammers one engine from several goroutines —
// meaningful under -race.
func TestConcurrentEngineUse(t *testing.T) {
	eng := New(WithMaxN(3), WithParallelism(4), WithProgress(func(Event) {}))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ft := zoo()[g%len(zoo())]
			if _, err := eng.Analyze(ft); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFingerprint pins the cache-key contract: structural equality means
// equal fingerprints, structural difference means (almost surely)
// different ones.
func TestFingerprint(t *testing.T) {
	if types.TestAndSet().Fingerprint() != types.TestAndSet().Fingerprint() {
		t.Error("equal types must share a fingerprint")
	}
	if types.TestAndSet().Fingerprint() == types.StickyBit().Fingerprint() {
		t.Error("distinct types should not collide")
	}
	if types.Tnn(5, 2).Fingerprint() == types.Tnn(5, 3).Fingerprint() {
		t.Error("distinct parameters should not collide")
	}
}

// TestEngineCheckMatchesModel pins engine.Check to model.Check results.
func TestEngineCheckMatchesModel(t *testing.T) {
	pr := proto.NewTnnWaitFree(3, 2, 4)
	inputs := []int{1, 1, 1, 1}
	want, err := model.Check(pr, model.CheckOpts{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	got, err := New().Check(pr, CheckRequest{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != want.Nodes || len(got.Violations) != len(want.Violations) {
		t.Errorf("engine check: nodes=%d violations=%d, want %d/%d",
			got.Nodes, len(got.Violations), want.Nodes, len(want.Violations))
	}
}
