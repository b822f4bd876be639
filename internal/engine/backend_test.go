package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/types"
)

func TestWithBackendSelectsDecider(t *testing.T) {
	e := New()
	if got := e.Backend(); got != "search" {
		t.Fatalf("default backend = %q, want search", got)
	}
	e = New(WithBackend("bitset"))
	if got := e.Backend(); got != "bitset" {
		t.Fatalf("backend = %q, want bitset", got)
	}
}

func TestBackendsListed(t *testing.T) {
	want := []string{"auto", "bitset", "search"}
	if got := Backends(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Backends() = %v, want %v", got, want)
	}
}

func TestUnknownBackendFailsLevelCheck(t *testing.T) {
	e := New(WithBackend("no-such-backend"))
	if got := e.Backend(); got != "no-such-backend" {
		t.Fatalf("Backend() = %q (unresolved names pass through)", got)
	}
	if _, err := e.Analyze(types.TestAndSet()); err == nil {
		t.Fatal("Analyze with unknown backend succeeded")
	}
	if _, _, err := e.Discerning(types.TestAndSet(), 2); err == nil {
		t.Fatal("Discerning with unknown backend succeeded")
	}
}

// TestBackendsAgreeOnAnalyses drives both backends through the full
// engine path (pooled levels, auto-sharding, private caches) and
// compares the complete analyses.
func TestBackendsAgreeOnAnalyses(t *testing.T) {
	search := New(WithBackend("search"), WithCache(NewCache()))
	bitset := New(WithBackend("bitset"), WithCache(NewCache()))
	for _, tt := range []string{"tnn:3,2", "swap:2", "queue:2", "tas"} {
		st, err := search.Resolve(tt)
		if err != nil {
			t.Fatal(err)
		}
		sa, err := search.AnalyzeTo(st, 4)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := bitset.AnalyzeTo(st, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sa, ba) {
			t.Errorf("%s: analyses diverged:\nsearch: %+v\nbitset: %+v", tt, sa, ba)
		}
	}
}

func TestDeciderRunsCounted(t *testing.T) {
	m := NewMetrics()
	e := New(WithBackend("bitset"), WithMetrics(m), WithCache(NewCache()))
	if _, _, err := e.Discerning(types.TestAndSet(), 2); err != nil {
		t.Fatal(err)
	}
	runs := m.DeciderRuns()
	if runs["bitset"] != 1 {
		t.Fatalf("DeciderRuns = %v, want bitset:1", runs)
	}
	// A cache hit runs no backend and must not count.
	if _, _, err := e.Discerning(types.TestAndSet(), 2); err != nil {
		t.Fatal(err)
	}
	if runs := m.DeciderRuns(); runs["bitset"] != 1 {
		t.Fatalf("DeciderRuns after cache hit = %v, want bitset:1", runs)
	}
}

// TestUnknownBackendFailsModelChecks pins that an engine whose backend
// did not resolve refuses model-checking calls too, although a walk runs
// no level decider: the engine is misconfigured, and every entry point
// says so with the registry's error.
func TestUnknownBackendFailsModelChecks(t *testing.T) {
	e := New(WithBackend("no-such-backend"))
	p, err := e.ResolveProtocol("tas-reg")
	if err != nil {
		t.Fatal(err)
	}
	req := CheckRequest{Inputs: []int{0, 1}, Ctx: context.Background()}
	if _, err := e.Check(p, req); err == nil {
		t.Fatal("Check with unknown backend succeeded")
	}
	if _, err := e.Theorem13(p, req); err == nil {
		t.Fatal("Theorem13 with unknown backend succeeded")
	}
	if _, _, err := e.CheckBatch(p, []CheckRequest{req, req}); err == nil {
		t.Fatal("CheckBatch with unknown backend succeeded")
	}
	// The same calls pass on an engine with a registered backend.
	ok := New(WithBackend("bitset"))
	if _, err := ok.Check(p, req); err != nil {
		t.Fatal(err)
	}
	items, _, err := ok.CheckBatch(p, []CheckRequest{req})
	if err != nil || items[0].Err != nil || !items[0].OK() {
		t.Fatalf("CheckBatch on a valid backend: %+v, %v", items, err)
	}
}
