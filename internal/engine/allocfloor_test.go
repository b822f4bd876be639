package engine

import (
	"runtime"
	"testing"

	"repro/internal/proto"
)

// TestWarmCheckAllocFloor is the in-repo allocation ratchet for the
// warm Check hot path: a headless engine re-checking a cached,
// fully-expanded graph. The packed-word encoding, open-addressed walk
// index, interned fingerprint memo, pooled key buffer and compact walk
// records keep the path at 3 allocs/op: the per-call Result, its walk
// records and its walk index, which outlive the call and cannot be
// pooled. The bound below leaves headroom for incidental runtime
// variation, so any change that reintroduces per-visit or per-key
// allocations fails here before it reaches the CI bench gate.
func TestWarmCheckAllocFloor(t *testing.T) {
	e := New(WithParallelism(1))
	pr := proto.NewCASWaitFree(2)
	req := CheckRequest{Inputs: []int{0, 1}}
	if _, err := e.Check(pr, req); err != nil { // prime the graph cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Check(pr, req); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 20
	if allocs > limit {
		t.Errorf("warm Check allocates %.1f allocs/op, ratchet is %d (measured floor: 3)",
			allocs, limit)
	}
}

// TestWarmQuotaCheckBytesFloor is the bytes ratchet for the quota'd
// warm walk, where every (graph node, crash-usage) pair is a walk
// record: cas-rec:4 with one crash each for p1..p3 over a cached,
// fully-expanded graph. Measured floor (amd64, go1.24): 1,458 nodes at
// 58 B/node and 10 allocs/check (19 under -race, whose sync.Pool drops
// pooled scratch at random). The bounds sit at about 1.5x the floor, so
// a per-record allocation, or records grown past 40 bytes, fails here.
func TestWarmQuotaCheckBytesFloor(t *testing.T) {
	e := New(WithParallelism(1))
	pr := proto.NewCASRecoverable(4)
	req := CheckRequest{Inputs: []int{0, 1, 0, 1}, CrashQuota: []int{0, 1, 1, 1}}
	res, err := e.Check(pr, req) // prime the graph cache
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("cas-rec:4 must check clean: %v", res.Violations)
	}
	const checks = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < checks; i++ {
		if res, err = e.Check(pr, req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytesPerNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(checks*res.Nodes)
	allocsPerCheck := float64(after.Mallocs-before.Mallocs) / checks
	const maxBytesPerNode = 87
	maxAllocsPerCheck := 15.0
	if raceEnabled {
		maxAllocsPerCheck = 28
	}
	if bytesPerNode > maxBytesPerNode || allocsPerCheck > maxAllocsPerCheck {
		t.Errorf("warm quota'd Check: %.1f B/node, %.1f allocs/check over %d nodes; ratchet is %d B/node, %.0f allocs/check",
			bytesPerNode, allocsPerCheck, res.Nodes, maxBytesPerNode, maxAllocsPerCheck)
	}
	t.Logf("%d nodes: %.1f B/node, %.1f allocs/check", res.Nodes, bytesPerNode, allocsPerCheck)
}
