package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graphstore"
	"repro/internal/model"
	"repro/internal/proto"
)

// slowStore wraps a GraphStore and delays every Spill, widening the
// window in which an eviction (enforce) races the asynchronous delta
// spill a Sync fired for the same entry. It counts the Spills that
// returned, and fails them with fail when set.
type slowStore struct {
	inner    GraphStore
	delay    time.Duration
	fail     error
	returned atomic.Int32
}

func (s *slowStore) Load(fp string, inputs []int) (*model.GraphSnapshot, error) {
	return s.inner.Load(fp, inputs)
}

func (s *slowStore) Spill(fp string, inputs []int, snap *model.GraphSnapshot) (int, error) {
	defer s.returned.Add(1)
	time.Sleep(s.delay)
	if s.fail != nil {
		return 0, s.fail
	}
	return s.inner.Spill(fp, inputs, snap)
}

// TestGraphCacheEvictionRacesSpill hammers a one-node-budget cache (so
// every Get evicts the least-recently-used graph) through a store whose
// spills are artificially slow: each Sync leaves a spill in flight that
// the next eviction then races. The guarantees under test, with -race
// in CI: no lost updates — after the dust settles the store holds every
// graph's complete expansion, so a fresh cache warm-loads each key and
// re-walks it with zero new expansions — and GraphStoreStats.Errors
// stays 0 throughout.
func TestGraphCacheEvictionRacesSpill(t *testing.T) {
	dir := t.TempDir()
	raw, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewGraphCache(1)
	c.SetStore(&slowStore{inner: raw, delay: 2 * time.Millisecond})

	type key struct {
		p      model.Protocol
		inputs []int
	}
	var keys []key
	for _, p := range []model.Protocol{proto.NewCASRecoverable(2), proto.NewCASWaitFree(2)} {
		for _, inputs := range [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
			keys = append(keys, key{p, inputs})
		}
	}

	// Expected full expansion size per key, from an isolated graph.
	want := make([]uint64, len(keys))
	for i, k := range keys {
		g, err := model.NewGraph(k.p, k.inputs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Check(model.CheckOpts{Inputs: k.inputs}); err != nil {
			t.Fatal(err)
		}
		want[i] = g.Stats().Interned
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range keys {
					// Stagger workers so Get/Sync/evict interleave
					// differently in each goroutine.
					kk := keys[(i+w)%len(keys)]
					g, err := c.Get(kk.p, kk.inputs)
					if err != nil {
						errs <- err
						return
					}
					if _, err := g.Check(model.CheckOpts{Inputs: kk.inputs}); err != nil {
						errs <- err
						return
					}
					c.Sync(g)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every key's complete expansion must land on disk: in-flight spills
	// export the full graph, so waiting on the raw store's contents is
	// the lost-update check.
	fps := make([]string, len(keys))
	for i, k := range keys {
		if fps[i], err = model.Fingerprint(k.p); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, k := range keys {
		for {
			snap, err := raw.Load(fps[i], k.inputs)
			if err != nil {
				t.Fatalf("key %d: load: %v", i, err)
			}
			if snap != nil && uint64(len(snap.Nodes)) == want[i] {
				break
			}
			if time.Now().After(deadline) {
				got := 0
				if snap != nil {
					got = len(snap.Nodes)
				}
				t.Fatalf("key %d: store has %d of %d nodes after racing spills (lost update)",
					i, got, want[i])
			}
			time.Sleep(time.Millisecond)
		}
	}

	if st := c.Stats(); st.Store == nil || st.Store.Errors != 0 {
		t.Fatalf("store errors after eviction/spill races: %+v", st.Store)
	}
	if st := c.Stats(); st.Evicted == 0 {
		t.Fatal("budget never forced an eviction; the race was not exercised")
	}

	// A fresh cache over the same directory must warm-load every key
	// completely: zero new expansions on a full re-walk.
	raw2, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewGraphCache(0)
	c2.SetStore(raw2)
	for i, k := range keys {
		g, err := c2.Get(k.p, k.inputs)
		if err != nil {
			t.Fatal(err)
		}
		before := g.Stats()
		if _, err := g.Check(model.CheckOpts{Inputs: k.inputs}); err != nil {
			t.Fatal(err)
		}
		if after := g.Stats(); after.Expanded != before.Expanded {
			t.Fatalf("key %d: warm re-walk expanded %d new nodes, want 0 (spill lost data)",
				i, after.Expanded-before.Expanded)
		}
	}
	if st := c2.Stats(); st.Store == nil || st.Store.Errors != 0 {
		t.Fatalf("fresh cache hit store errors: %+v", st.Store)
	}
}

// evictDirty walks one graph on a one-node-budget cache without a Sync,
// then Gets a second key, so the first graph is evicted dirty and its
// spill starts asynchronously.
func evictDirty(t *testing.T, c *GraphCache) {
	t.Helper()
	p := proto.NewCASRecoverable(2)
	g, err := c.Get(p, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Check(model.CheckOpts{Inputs: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(p, []int{1, 0}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evicted != 1 || st.Graphs != 1 {
		t.Fatalf("want the walked graph evicted: %+v", st)
	}
}

// TestGraphCacheFlushWaitsForEvictedSpill pins the shutdown contract: an
// evicted dirty graph has left the cache, yet Flush must not return
// before that graph's asynchronous Spill has, and the graph must then be
// complete on disk.
func TestGraphCacheFlushWaitsForEvictedSpill(t *testing.T) {
	dir := t.TempDir()
	raw, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := &slowStore{inner: raw, delay: 50 * time.Millisecond}
	c := NewGraphCache(1)
	c.SetStore(rec)
	evictDirty(t, c)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.returned.Load() == 0 {
		t.Fatal("Flush returned before the evicted graph's Spill did")
	}
	if st := c.Stats(); st.Store.Spills != 1 || st.Store.Errors != 0 {
		t.Fatalf("want one clean spill: %+v", st.Store)
	}

	// The victim's expansion is on disk: a fresh cache warm-loads it and
	// re-walks it without expanding.
	raw2, err := graphstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewGraphCache(0)
	c2.SetStore(raw2)
	g, err := c2.Get(proto.NewCASRecoverable(2), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	before := g.Stats()
	if _, err := g.Check(model.CheckOpts{Inputs: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if after := g.Stats(); after.Expanded != before.Expanded || before.Expanded == 0 {
		t.Fatalf("warm re-walk: expanded %d -> %d, want a loaded graph and no new expansion",
			before.Expanded, after.Expanded)
	}
}

// TestGraphCacheFlushReportsEvictedSpillError: a failed asynchronous
// spill of an evicted graph surfaces from the next Flush, and only once.
func TestGraphCacheFlushReportsEvictedSpillError(t *testing.T) {
	raw, err := graphstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	c := NewGraphCache(1)
	c.SetStore(&slowStore{inner: raw, delay: 10 * time.Millisecond, fail: boom})
	evictDirty(t, c)
	if err := c.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want the evicted graph's spill error", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("second Flush = %v, want the error reported once", err)
	}
}
