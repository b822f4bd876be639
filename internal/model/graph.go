package model

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/schedule"
)

// Graph is a canonicalized, lazily-expanded exploration graph for one
// (protocol, inputs) pair, shared across many Check runs. Node identity
// is a packed fixed-width word encoding of the (configuration,
// output-history) pair — local states translated through per-process
// dictionaries built at NewGraph from the protocol's canonical
// reachable state machine (the same closure model.Fingerprint hashes) —
// so interning hashes with a word-mix loop and compares with == over
// words, never a per-string byte loop. Nodes live in an open-addressed
// table (power-of-two capacity, linear probing); hash collisions only
// cost probe steps, equality is always confirmed over the full packed
// identity, so hashing is a pure speedup, never a correctness input.
// Each node's successors are computed exactly once, with singleflight
// semantics: concurrent walks that reach an unexpanded node agree on
// one expander, the rest block until it is done.
//
// Crash usage is deliberately NOT part of a graph node's identity:
// transitions depend only on the configuration and the output history, so
// the same canonical node serves every path to its configuration no
// matter how many crashes the path spent. Each walk layers its own
// (node, crash-usage) bookkeeping on top (see Graph.Check), preserving
// the serial checker's (configuration, crash-usage, output-history)
// dedup exactly. This is what lets walks with different crash quotas —
// and the stages of a Theorem 13 chain, whose per-stage quotas reset —
// share every transition, output-merge and hash computation.
//
// A Graph is safe for concurrent use; Graph.Check may be called from any
// number of goroutines. Results are byte-identical to a fresh serial
// exploration of the same options (model.Check itself runs on a one-shot
// Graph, so there is exactly one exploration code path).
type Graph struct {
	pr     Protocol
	inputs []int
	enc    *encoding

	mu sync.Mutex
	// table is the open-addressed interned-node index: power-of-two
	// capacity, linear probing on gnode.hash, grown at 3/4 load. Guarded
	// by mu, like the dictionary extensions (encoding.extend).
	table []*gnode
	live  int
	// order lists the canonical nodes in intern order. It is the
	// deterministic spine of Export/ImportSnapshot: successor references
	// in a snapshot are positions in this list, and an imported graph
	// preserves the list exactly, so export -> import -> export
	// round-trips byte-identically.
	order []*gnode

	// rootOnce memoizes the empty-StartTrace walk root — every plain
	// Check on a warm graph starts there, so the initial configuration,
	// its decision vector and its intern lookup are paid once per graph,
	// not once per walk.
	rootOnce sync.Once
	rootNode *gnode

	// negOuts is the shared all-undecided output vector (read-only), the
	// parent history of every walk root's safety check.
	negOuts []int8

	// scratch pools per-expansion decision/output/packing buffers and
	// postSweep the liveness DFS's color/stack scratch, so steady-state
	// walks over a warm graph allocate only their own Result structures.
	scratch   sync.Pool
	postSweep sync.Pool

	interned atomic.Uint64
	expanded atomic.Uint64
	reused   atomic.Uint64
}

// GraphStats counts a graph's reuse: how many canonical nodes exist, how
// many expansions were performed, and how many expansion requests were
// served from already-expanded nodes. Reused/(Expanded+Reused) is the
// share of successor computations the graph amortized away.
type GraphStats struct {
	// Interned is the number of distinct canonical nodes in the store.
	Interned uint64 `json:"interned"`
	// Expanded is the number of node expansions performed (each computes
	// the node's step and crash successors exactly once).
	Expanded uint64 `json:"expanded"`
	// Reused is the number of expansion requests answered by an
	// already-expanded node — work some earlier walk (or an earlier visit
	// of this walk) already paid for.
	Reused uint64 `json:"reused"`
}

// HitRate returns Reused / (Expanded + Reused), or 0 before any walk.
func (s GraphStats) HitRate() float64 {
	if total := s.Expanded + s.Reused; total > 0 {
		return float64(s.Reused) / float64(total)
	}
	return 0
}

// Add accumulates other into s.
func (s *GraphStats) Add(other GraphStats) {
	s.Interned += other.Interned
	s.Expanded += other.Expanded
	s.Reused += other.Reused
}

// Sub returns the counter delta s - prev, the per-call attribution when a
// long-lived cached graph serves many calls.
func (s GraphStats) Sub(prev GraphStats) GraphStats {
	return GraphStats{
		Interned: s.Interned - prev.Interned,
		Expanded: s.Expanded - prev.Expanded,
		Reused:   s.Reused - prev.Reused,
	}
}

// nodeFP is the 128-bit hashed fingerprint a snapshot node record is
// verified by (see graph_io.go). The RUNTIME node index probes packed
// words instead; this fingerprint survives because the on-disk graph
// store format embeds it per record, and keeping it keeps every v1
// store file loadable byte-identically.
type nodeFP struct{ hi, lo uint64 }

// FNV-1a 128-bit parameters (offset basis and prime).
const (
	fnvOffset128Hi = 0x6c62272e07bb0142
	fnvOffset128Lo = 0x62b821756295c58d
	fnvPrime128Hi  = 0x0000000001000000
	fnvPrime128Lo  = 0x000000000000013b
)

// hash128 accumulates an FNV-1a 128-bit hash with no allocation. It is
// the snapshot-record fingerprint, not the hot-path hash: interning
// probes hashWords over the packed identity instead.
type hash128 struct{ hi, lo uint64 }

func newHash128() hash128 { return hash128{hi: fnvOffset128Hi, lo: fnvOffset128Lo} }

func (h *hash128) writeByte(b byte) {
	lo := h.lo ^ uint64(b)
	// Multiply the 128-bit state by the FNV prime, mod 2^128.
	carry, newLo := bits.Mul64(lo, fnvPrime128Lo)
	h.hi = h.hi*fnvPrime128Lo + lo*fnvPrime128Hi + carry
	h.lo = newLo
}

func (h *hash128) writeString(s string) {
	for i := 0; i < len(s); i++ {
		h.writeByte(s[i])
	}
	h.writeByte(0xff) // terminator: "ab","c" must not alias "a","bc"
}

// fingerprintOf hashes a node's identity for snapshot records — the
// stable per-record integrity check of the RPRGRAPH v1 store format.
// (A weak spot — object values hashed mod 2^16 — is irrelevant here:
// ImportSnapshot compares the recomputed fingerprint for equality, it
// never indexes by it.)
func fingerprintOf(cfg Config, outs []int8) nodeFP {
	h := newHash128()
	for _, s := range cfg.States {
		h.writeString(s)
	}
	h.writeByte(0xfe)
	for _, v := range cfg.Vals {
		h.writeByte(byte(v))
		h.writeByte(byte(uint16(v) >> 8))
	}
	h.writeByte(0xfe)
	for _, o := range outs {
		h.writeByte(byte(o))
	}
	return nodeFP{hi: h.hi, lo: h.lo}
}

// gnode is one canonical node of the shared graph. All fields except the
// expansion set are written once at intern time and read-only afterwards;
// the expansion set (stepSucc, stepP, crashSucc) is written exactly once
// inside the sync.Once and published by the expanded flag.
type gnode struct {
	cfg  Config
	outs []int8
	// words is the packed fixed-width identity (see encoding) and hash
	// its mix — both the graph's intern index key and the walk overlay's
	// probe hash, computed exactly once per canonical node.
	words []uint64
	hash  uint64
	// decided[p] is p's decision visible in cfg (-1 if undecided),
	// precomputed so per-request safety checks need no Protocol calls.
	decided []int8

	once sync.Once
	done atomic.Bool
	// stepSucc[i] is the step successor via process stepP[i]; decided
	// processes take no-op steps and are omitted, exactly as in the
	// serial BFS.
	stepSucc []*gnode
	stepP    []int
	// crashSucc[p] is the crash successor of process p, nil when p is in
	// its initial state (crashing it changes nothing and only burns
	// quota, so every walk skips it).
	crashSucc []*gnode
}

// NewGraph validates the protocol and builds an empty shared graph for
// the given input vector. Every Check run on the graph must use exactly
// these inputs — crash transitions and the validity default depend on
// them, so they are part of the graph's identity. Building includes the
// packed-encoding dictionaries (the canonical per-process reachable
// state closures); protocols whose closure exceeds the fingerprint
// budget, or whose objects have more than 2^16 values, are refused.
func NewGraph(pr Protocol, inputs []int) (*Graph, error) {
	if err := Validate(pr); err != nil {
		return nil, err
	}
	if len(inputs) != pr.Procs() {
		return nil, fmt.Errorf("model: %d inputs for %d processes", len(inputs), pr.Procs())
	}
	enc, err := newEncoding(pr)
	if err != nil {
		return nil, err
	}
	in := make([]int, len(inputs))
	copy(in, inputs)
	return &Graph{
		pr: pr, inputs: in, enc: enc,
		table:   make([]*gnode, 64),
		negOuts: freshOuts(pr.Procs()),
	}, nil
}

// Inputs returns the input vector the graph is built for.
func (g *Graph) Inputs() []int {
	out := make([]int, len(g.inputs))
	copy(out, g.inputs)
	return out
}

// Stats snapshots the graph's reuse counters.
func (g *Graph) Stats() GraphStats {
	return GraphStats{
		Interned: g.interned.Load(),
		Expanded: g.expanded.Load(),
		Reused:   g.reused.Load(),
	}
}

// decisionVec computes the per-process decision vector of cfg (-1 for
// undecided processes), the shared-graph form of repeated Decision calls.
func decisionVec(pr Protocol, cfg Config) []int8 {
	out := make([]int8, pr.Procs())
	decisionVecInto(out, pr, cfg)
	return out
}

// decisionVecInto is decisionVec into a caller-owned buffer (the
// expansion scratch), so probing an already-interned successor costs no
// allocation.
func decisionVecInto(dst []int8, pr Protocol, cfg Config) {
	for p := range dst {
		if v, ok := Decision(pr, cfg, p); ok {
			dst[p] = int8(v)
		} else {
			dst[p] = -1
		}
	}
}

// mergeDecided extends a path's output history with a decision vector,
// returning outs unchanged (same slice) if nothing new was decided — the
// same copy-on-write contract as mergeOuts, driven by the precomputed
// vector instead of fresh Decision calls.
func mergeDecided(outs []int8, decided []int8) []int8 {
	var copied []int8
	for p, v := range decided {
		if v >= 0 && outs[p] == -1 {
			if copied == nil {
				copied = make([]int8, len(outs))
				copy(copied, outs)
			}
			copied[p] = v
		}
	}
	if copied == nil {
		return outs
	}
	return copied
}

// mergeDecidedInto is mergeDecided with the copy landing in a
// caller-owned scratch buffer. It returns either outs itself (owned=true:
// nothing new was decided, the graph-owned slice may be shared) or
// scratch (owned=false: the caller must copy before retaining).
func mergeDecidedInto(outs, decided, scratch []int8) (res []int8, owned bool) {
	changed := false
	for p, v := range decided {
		if v >= 0 && outs[p] == -1 {
			changed = true
			break
		}
	}
	if !changed {
		return outs, true
	}
	copy(scratch, outs)
	for p, v := range decided {
		if v >= 0 && scratch[p] == -1 {
			scratch[p] = v
		}
	}
	return scratch, false
}

// exScratch is one expansion's reusable buffers, including the packing
// buffer interning hashes through.
type exScratch struct {
	dec   []int8
	outs  []int8
	words []uint64
}

func (g *Graph) getScratch() *exScratch {
	if v := g.scratch.Get(); v != nil {
		return v.(*exScratch)
	}
	n := g.pr.Procs()
	return &exScratch{dec: make([]int8, n), outs: make([]int8, n), words: make([]uint64, g.enc.words)}
}

// probeLocked finds the canonical node with the given packed identity,
// or nil. Lock held.
func (g *Graph) probeLocked(h uint64, words []uint64) *gnode {
	mask := uint64(len(g.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		nd := g.table[i]
		if nd == nil {
			return nil
		}
		if nd.hash == h && wordsEqual(nd.words, words) {
			return nd
		}
	}
}

// insertLocked adds a fresh node to the open-addressed index, growing at
// 3/4 load. Lock held; the caller has already probed for absence.
func (g *Graph) insertLocked(nd *gnode) {
	if (g.live+1)*4 >= len(g.table)*3 {
		g.growLocked()
	}
	mask := uint64(len(g.table) - 1)
	i := nd.hash & mask
	for g.table[i] != nil {
		i = (i + 1) & mask
	}
	g.table[i] = nd
	g.live++
}

// growLocked doubles the index and rehashes from the stored hashes —
// packed identities are never re-hashed after intern.
func (g *Graph) growLocked() {
	next := make([]*gnode, len(g.table)*2)
	mask := uint64(len(next) - 1)
	for _, nd := range g.table {
		if nd == nil {
			continue
		}
		i := nd.hash & mask
		for next[i] != nil {
			i = (i + 1) & mask
		}
		next[i] = nd
	}
	g.table = next
}

// intern returns the canonical node for (cfg, outs), creating it with the
// given decision vector if absent. cfg is always caller-built and fresh
// (Step/CrashProc clone), so it is adopted as-is; outs is adopted only
// when outsOwned (a graph-owned or walk-root slice) and copied out of the
// expansion scratch otherwise; decided is always copied on create, so
// callers may pass scratch. Packing runs outside the lock against the
// dictionary snapshot; the miss fallback (impossible for deterministic
// protocols) extends the dictionaries under the lock.
func (g *Graph) intern(cfg Config, outs []int8, outsOwned bool, decided []int8) *gnode {
	sc := g.getScratch()
	w := sc.words
	if !g.enc.packInto(w, cfg, outs) {
		g.mu.Lock()
		g.enc.mustPackInto(w, cfg, outs)
		g.mu.Unlock()
	}
	h := hashWords(w)
	g.mu.Lock()
	if nd := g.probeLocked(h, w); nd != nil {
		g.mu.Unlock()
		g.scratch.Put(sc)
		return nd
	}
	if !outsOwned {
		outs = append([]int8(nil), outs...)
	}
	nd := &gnode{cfg: cfg, outs: outs, decided: append([]int8(nil), decided...),
		words: append([]uint64(nil), w...), hash: h}
	g.insertLocked(nd)
	g.order = append(g.order, nd)
	g.mu.Unlock()
	g.interned.Add(1)
	g.scratch.Put(sc)
	return nd
}

// find returns the canonical node for (cfg, outs) without creating it, or
// nil — the lookup behind post-exploration analyses (Result.Node, crash
// successors in valency sweeps). A dictionary miss means no such node
// was ever interned.
func (g *Graph) find(cfg Config, outs []int8) *gnode {
	sc := g.getScratch()
	defer g.scratch.Put(sc)
	if !g.enc.packInto(sc.words, cfg, outs) {
		return nil
	}
	h := hashWords(sc.words)
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.probeLocked(h, sc.words)
}

// ensure expands nd's successors if no walk has yet, with singleflight
// semantics: concurrent callers agree on one expander and the rest wait.
// The expansion performs the Step/CrashProc transitions, output merges
// and packing/hashing the serial BFS would redo per request.
func (g *Graph) ensure(nd *gnode) {
	if nd.done.Load() {
		g.reused.Add(1)
		return
	}
	fresh := false
	nd.once.Do(func() {
		n := g.pr.Procs()
		sc := g.getScratch()
		for p := 0; p < n; p++ {
			if nd.decided[p] >= 0 {
				continue
			}
			next := Step(g.pr, nd.cfg, p)
			decisionVecInto(sc.dec, g.pr, next)
			outs, owned := mergeDecidedInto(nd.outs, sc.dec, sc.outs)
			nd.stepSucc = append(nd.stepSucc, g.intern(next, outs, owned, sc.dec))
			nd.stepP = append(nd.stepP, p)
		}
		nd.crashSucc = make([]*gnode, n)
		for p := 0; p < n; p++ {
			if nd.cfg.States[p] == g.pr.Init(p, g.inputs[p]) {
				continue
			}
			next := CrashProc(g.pr, nd.cfg, p, g.inputs[p])
			decisionVecInto(sc.dec, g.pr, next)
			nd.crashSucc[p] = g.intern(next, nd.outs, true, sc.dec)
		}
		g.scratch.Put(sc)
		g.expanded.Add(1)
		nd.done.Store(true)
		fresh = true
	})
	if !fresh {
		g.reused.Add(1)
	}
}

// root interns the walk's starting node: the initial configuration with
// the start trace applied. Crashes inside the trace do not consume the
// walk's crash quota, and outputs are merged only across steps, exactly
// as in the serial exploration. The empty-StartTrace root — every plain
// Check — is memoized, so warm walks skip the initial-configuration
// rebuild entirely.
func (g *Graph) root(startTrace schedule.Schedule) *gnode {
	if len(startTrace) == 0 {
		g.rootOnce.Do(func() { g.rootNode = g.buildRoot(nil) })
		return g.rootNode
	}
	return g.buildRoot(startTrace)
}

func (g *Graph) buildRoot(startTrace schedule.Schedule) *gnode {
	initCfg := InitialConfig(g.pr, g.inputs)
	initOuts := mergeDecided(freshOuts(g.pr.Procs()), decisionVec(g.pr, initCfg))
	for _, e := range startTrace {
		if e.Crash {
			initCfg = CrashProc(g.pr, initCfg, e.P, g.inputs[e.P])
		} else {
			initCfg = Step(g.pr, initCfg, e.P)
			initOuts = mergeDecided(initOuts, decisionVec(g.pr, initCfg))
		}
	}
	return g.intern(initCfg, initOuts, true, decisionVec(g.pr, initCfg))
}

// Check explores the graph under the given options and verifies
// agreement, validity and recoverable wait-freedom, sharing every node
// expansion with concurrent and past walks. opts.Inputs must equal the
// graph's inputs. The walk's own structures — crash-usage overlays,
// discovery parents, BFS order, violation traces, node counts — are
// private to the call, so the returned Result is identical to a serial
// model.Check of the same options.
func (g *Graph) Check(opts CheckOpts) (*Result, error) {
	n := g.pr.Procs()
	if len(opts.Inputs) != n {
		return nil, fmt.Errorf("model: %d inputs for %d processes", len(opts.Inputs), n)
	}
	for p, in := range opts.Inputs {
		if in != g.inputs[p] {
			return nil, fmt.Errorf("model: graph built for inputs %v, check requested %v", g.inputs, opts.Inputs)
		}
	}
	quota := opts.CrashQuota
	if quota != nil && len(quota) != n {
		return nil, fmt.Errorf("model: %d crash quotas for %d processes", len(quota), n)
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 2_000_000
	}

	// Pre-size the walk records and index from the graph's canonical
	// node count: on a warm graph it covers a crash-free walk, on a cold
	// one it is a harmless underestimate, and a quota'd walk that
	// outgrows it doubles (see visit).
	hint := int(g.interned.Load())
	if hint > maxNodes {
		hint = maxNodes
	}
	r := &Result{pr: g.pr, g: g, inputs: opts.Inputs}
	r.nodes = make([]node, 0, hint+1)
	r.index.init(hint + 1)
	r.usage.n = n
	w := walkState{r: r, validity: opts.Validity, inputs: opts.Inputs}
	r.visit(g.root(opts.StartTrace), 0, -1, 0)

	var done <-chan struct{}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, err
		}
		done = opts.Ctx.Done()
	}

	// BFS over (configuration, crash-usage, output-history) walk records,
	// each a canonical (configuration, output-history) graph node plus
	// this walk's crash-usage id. The loop mirrors the original serial
	// exploration exactly; only the successor computations are delegated
	// to the shared graph. r.nodes is the queue: r.walked is its head.
	w.checkSafety(0, g.negOuts)
	for r.walked < len(r.nodes) && len(r.nodes) <= maxNodes {
		if r.walked++; done != nil && r.walked%1024 == 0 {
			select {
			case <-done:
				return nil, opts.Ctx.Err()
			default:
			}
		}
		i := int32(r.walked - 1)
		gn, used := r.nodes[i].gn, r.nodes[i].used
		g.ensure(gn)

		// Step successors (decided processes take no-op steps, which
		// cannot reach new configurations — omitted from the expansion).
		// Step children keep the parent's crash-usage id.
		for k, cg := range gn.stepSucc {
			if child, fresh := r.visit(cg, used, i, stepEvent(gn.stepP[k])); fresh {
				w.checkSafety(child, gn.outs)
			}
		}

		// Crash successors: quota is this walk's overlay on the shared
		// structure; the initial-state skip is baked into the expansion.
		for p := 0; p < len(quota); p++ {
			if r.usage.count(used, p) >= quota[p] {
				continue
			}
			cg := gn.crashSucc[p]
			if cg == nil {
				continue
			}
			if child, fresh := r.visit(cg, r.usage.plus(used, p), i, crashEvent(p)); fresh {
				w.checkSafety(child, gn.outs)
			}
		}
	}
	if len(r.nodes) > maxNodes {
		r.Truncated = true
	}
	r.Nodes = len(r.nodes)

	if !opts.SkipLiveness && !r.Truncated {
		r.checkLiveness(&w)
	}
	return r, nil
}
