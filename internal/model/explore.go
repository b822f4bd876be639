package model

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/schedule"
)

// CheckOpts configures an exploration.
type CheckOpts struct {
	// Ctx, when non-nil, cancels the exploration: Check polls it
	// periodically during the BFS and returns ctx.Err() once it is done.
	Ctx context.Context
	// Inputs is the binary input of each process.
	Inputs []int
	// CrashQuota[p] is the maximum number of crashes of process p. A nil
	// slice means crash-free exploration. Note the paper's E sets always
	// keep p0 crash-free; callers model that by setting CrashQuota[0]=0.
	CrashQuota []int
	// Validity overrides the validity predicate for decided values. If
	// nil, the consensus default is used: a decided value must equal the
	// input of some process.
	Validity func(decided int) bool
	// MaxNodes aborts exploration when the state space exceeds the bound
	// (0 means the default of 2,000,000).
	MaxNodes int
	// SkipLiveness disables the recoverable wait-freedom (cycle) check.
	SkipLiveness bool
	// StartTrace, when nonempty, is applied to the initial configuration
	// before exploration begins: the explored root is the configuration
	// (and persistent output history) reached by this schedule. Crashes
	// inside StartTrace do NOT consume the exploration's crash quota —
	// each Check call gets a fresh budget, mirroring the per-stage
	// re-derivation in the Theorem 13 chain construction.
	StartTrace schedule.Schedule
}

// Violation describes one property violation found by the checker.
type Violation struct {
	// Kind is "agreement", "validity", or "wait-freedom".
	Kind string
	// Trace is a schedule from the initial configuration exhibiting the
	// violation (for wait-freedom, a path to the start of a cycle).
	Trace schedule.Schedule
	// Config is the violating configuration.
	Config Config
	// Detail is a human-readable explanation.
	Detail string
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s violation after [%s]: %s", v.Kind, v.Trace, v.Detail)
}

// Result is the outcome of an exploration.
type Result struct {
	pr     Protocol
	inputs []int
	// g is the shared exploration graph the walk ran on; post-exploration
	// analyses (Node, valency, critical search) resolve canonical nodes
	// through it.
	g *Graph

	// Nodes is the number of distinct (configuration, crash-usage) nodes
	// visited.
	Nodes int
	// Violations lists all property violations found (deduplicated by
	// kind; the checker records the first witness of each kind).
	Violations []*Violation
	// Truncated reports whether exploration hit MaxNodes.
	Truncated bool

	// nodes holds the walk records in BFS discovery order, the root
	// first. It is also the BFS queue: the walk expands nodes[walked]
	// and appends the children it discovers, so no separate frontier
	// exists. Records refer to each other by index, never by pointer.
	nodes []node
	// walked counts the leading records whose successors the walk
	// enumerated: all of them unless MaxNodes truncated the walk.
	walked int
	// index is the walk's dedup table over (graph node, crash-usage id)
	// pairs — exactly the serial checker's (configuration, crash-usage,
	// output-history) identity, since a graph node is a (configuration,
	// output-history) pair.
	index walkIndex
	usage usageTable
	// valences caches valency(), one decision-reachability mask per
	// record.
	valences []uint8
}

// OK reports whether the exploration completed without violations.
func (r *Result) OK() bool { return len(r.Violations) == 0 && !r.Truncated }

// node is one walk record: a (graph node, crash-usage) pair the walk
// reached, plus how it was first reached. Everything else — the
// configuration, the output history, the decision vector and the
// successors — lives on the shared graph node and is read through gn.
type node struct {
	gn *gnode
	// parent is the index of the record the walk discovered this one
	// from (-1 for the root), and via the event it took.
	parent int32
	used   uint32 // interned crash-usage id (see usageTable)
	via    event
}

// event is a schedule.Event packed into one word: the process index
// shifted left once, with the low bit set for a crash.
type event int32

func stepEvent(p int) event  { return event(p << 1) }
func crashEvent(p int) event { return event(p<<1 | 1) }

func (e event) unpack() schedule.Event {
	return schedule.Event{P: int(e >> 1), Crash: e&1 == 1}
}

// usageTable interns one walk's crash-usage vectors (crashes used per
// process) as dense ids. Id 0 is the all-zero vector every walk starts
// from, so a crash-free walk never touches the table; every other
// vector is reached by one more crash of some process, and next
// memoizes that step, so the walk compares usage by id and pays for a
// vector only the first time it reaches one.
type usageTable struct {
	n int
	// vecs[id*n+p] is process p's crash count under usage id (vecs is
	// empty until the first crash: id 0 is implicit).
	vecs []int
	// next[id*n+p] is 1 + the id of vector id with p's count plus one,
	// or 0 while that step is not yet known.
	next []uint32
	// ids is an open-addressed table of the nonzero vectors' ids, stored
	// plus one so the zero slot is empty, probed by usageHash (linear
	// probing, power-of-two capacity, grown at 3/4 load).
	ids  []uint32
	live int
}

// count returns process p's crash count under usage id.
func (u *usageTable) count(id uint32, p int) int {
	if id == 0 {
		return 0
	}
	return u.vecs[int(id)*u.n+p]
}

func (u *usageTable) vec(id uint32) []int {
	return u.vecs[int(id)*u.n : int(id+1)*u.n]
}

// plus returns the id of usage id with one more crash of p, interning
// the vector if it is new.
func (u *usageTable) plus(id uint32, p int) uint32 {
	k := int(id)*u.n + p
	if k < len(u.next) && u.next[k] != 0 {
		return u.next[k] - 1
	}
	if len(u.vecs) == 0 {
		// Room for the root and seven more vectors before any growth.
		u.vecs = make([]int, u.n, 8*u.n)
		u.next = make([]uint32, u.n, 8*u.n)
		u.ids = make([]uint32, 16)
	}
	nid := uint32(len(u.vecs) / u.n)
	u.vecs = append(u.vecs, u.vec(id)...)
	u.vecs[len(u.vecs)-u.n+p]++
	i := u.slot(u.vec(nid))
	if j := u.ids[i]; j != 0 {
		u.vecs = u.vecs[:len(u.vecs)-u.n]
		nid = j - 1
	} else {
		u.ids[i] = nid + 1
		u.next = append(u.next, make([]uint32, u.n)...)
		if u.live++; u.live*4 >= len(u.ids)*3 {
			u.grow()
		}
	}
	u.next[k] = nid + 1
	return nid
}

func usageHash(v []int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range v {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

// slot returns the table position holding the id of vector v, or the
// empty position where it would be inserted.
func (u *usageTable) slot(v []int) uint64 {
	mask := uint64(len(u.ids) - 1)
	for i := usageHash(v) & mask; ; i = (i + 1) & mask {
		j := u.ids[i]
		if j == 0 || slices.Equal(u.vec(j-1), v) {
			return i
		}
	}
}

func (u *usageTable) grow() {
	old := u.ids
	u.ids = make([]uint32, 2*len(old))
	for _, j := range old {
		if j != 0 {
			u.ids[u.slot(u.vec(j-1))] = j
		}
	}
}

// walkIndex is the per-walk dedup index: an open-addressed table from
// (graph node, crash-usage id) to the walk record's position in
// Result.nodes, stored plus one so the zero slot is empty. It probes
// with the gnode's precomputed packed-identity hash mixed with the
// usage id (linear probing, power-of-two capacity, grown at 3/4 load)
// and confirms a hit by comparing the record's gnode pointer and usage
// id, so a probe does no hashing work. The table lives and dies with its
// Result (post-exploration analyses keep using it).
type walkIndex struct {
	tab  []int32
	live int
}

func walkHash(gn *gnode, used uint32) uint64 {
	return gn.hash ^ uint64(used)*0x9e3779b97f4a7c15
}

// init sizes the table so hint entries fit under 3/4 load.
func (w *walkIndex) init(hint int) {
	capacity := 16
	for capacity*3 < hint*4 {
		capacity <<= 1
	}
	w.tab = make([]int32, capacity)
	w.live = 0
}

// slot returns the table position holding the record for (gn, used), or
// the empty position where it would be inserted.
func (r *Result) slot(gn *gnode, used uint32) uint64 {
	tab := r.index.tab
	mask := uint64(len(tab) - 1)
	for i := walkHash(gn, used) & mask; ; i = (i + 1) & mask {
		j := tab[i]
		if j == 0 {
			return i
		}
		if nd := &r.nodes[j-1]; nd.gn == gn && nd.used == used {
			return i
		}
	}
}

// lookup returns the index of this walk's record for (gn, used), or -1.
// A nil gn (a schedule that leaves the explored graph) finds nothing.
func (r *Result) lookup(gn *gnode, used uint32) int32 {
	if gn == nil {
		return -1
	}
	return r.index.tab[r.slot(gn, used)] - 1
}

// visit returns the index of the record for (gn, used) and whether the
// walk just reached it; a new record is appended with the parent and
// event it was discovered by.
func (r *Result) visit(gn *gnode, used uint32, parent int32, via event) (int32, bool) {
	w := &r.index
	i := r.slot(gn, used)
	if j := w.tab[i]; j != 0 {
		return j - 1, false
	}
	idx := int32(len(r.nodes))
	if len(r.nodes) == cap(r.nodes) {
		// Double rather than take append's ~1.25x growth for large
		// slices: a quota'd walk can outgrow the graph-count hint
		// several times over, and each growth copies every record.
		r.nodes = append(make([]node, 0, 2*cap(r.nodes)), r.nodes...)
	}
	r.nodes = append(r.nodes, node{gn: gn, parent: parent, used: used, via: via})
	w.tab[i] = idx + 1
	if w.live++; w.live*4 >= len(w.tab)*3 {
		r.growIndex()
	}
	return idx, true
}

func (r *Result) growIndex() {
	next := make([]int32, len(r.index.tab)*2)
	mask := uint64(len(next) - 1)
	for _, j := range r.index.tab {
		if j == 0 {
			continue
		}
		nd := &r.nodes[j-1]
		i := walkHash(nd.gn, nd.used) & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = j
	}
	r.index.tab = next
}

// indexOf returns the position of a record handed out by Node or
// InitNode, or -1 for nil or a record this walk does not contain.
func (r *Result) indexOf(nd *node) int32 {
	if nd == nil {
		return -1
	}
	return r.lookup(nd.gn, nd.used)
}

// freshOuts returns an all-undecided output vector.
func freshOuts(n int) []int8 {
	outs := make([]int8, n)
	for i := range outs {
		outs[i] = -1
	}
	return outs
}

// mergeOuts extends a path's output history with the decisions visible in
// cfg, returning outs unchanged (same slice) if nothing new was decided.
func mergeOuts(pr Protocol, cfg Config, outs []int8) []int8 {
	var copied []int8
	for p := range cfg.States {
		if v, ok := Decision(pr, cfg, p); ok && outs[p] == -1 {
			if copied == nil {
				copied = make([]int8, len(outs))
				copy(copied, outs)
			}
			copied[p] = int8(v)
		}
	}
	if copied == nil {
		return outs
	}
	return copied
}

// trace reconstructs the schedule from the initial node to record i.
func (r *Result) trace(i int32) schedule.Schedule {
	var rev []event
	for ; r.nodes[i].parent >= 0; i = r.nodes[i].parent {
		rev = append(rev, r.nodes[i].via)
	}
	out := make(schedule.Schedule, len(rev))
	for k := range rev {
		out[k] = rev[len(rev)-1-k].unpack()
	}
	return out
}

// Check explores the protocol's reachable state space under the given
// options and verifies agreement, validity and recoverable wait-freedom.
// It runs on a one-shot shared exploration graph; batch callers that
// construct a Graph once and Check it many times amortize the state-space
// expansion across requests while getting results identical to this
// function (there is exactly one exploration code path — Graph.Check).
func Check(pr Protocol, opts CheckOpts) (*Result, error) {
	g, err := NewGraph(pr, opts.Inputs)
	if err != nil {
		return nil, err
	}
	return g.Check(opts)
}

// walkState is one Check call's property-checking state: the validity
// predicate, the per-kind first-witness dedup, and the violation sink.
// It replaces the per-walk report/checkSafety closures and seen-kind map
// with a stack value, so a clean walk records violations for free.
type walkState struct {
	r        *Result
	validity func(int) bool
	inputs   []int
	// seen[k] dedups violations per kind (0 agreement, 1 validity,
	// 2 wait-freedom): the checker records the first witness of each.
	seen [3]bool
}

const (
	kindAgreement = iota
	kindValidity
	kindWaitFreedom
)

// valid applies the walk's validity predicate; the consensus default —
// a decided value must equal some process's input — is evaluated
// directly against the input vector, with no closure.
func (w *walkState) valid(d int) bool {
	if w.validity != nil {
		return w.validity(d)
	}
	for _, in := range w.inputs {
		if d == in {
			return true
		}
	}
	return false
}

var kindNames = [3]string{"agreement", "validity", "wait-freedom"}

func (w *walkState) report(kind int, i int32, detail string) {
	if w.seen[kind] {
		return
	}
	w.seen[kind] = true
	w.r.Violations = append(w.r.Violations, &Violation{
		Kind: kindNames[kind], Trace: w.r.trace(i), Config: w.r.nodes[i].gn.cfg, Detail: detail,
	})
}

// checkSafety verifies agreement and validity over the path's output
// history (parentOuts) extended by the decisions visible in record i's
// configuration, read from the graph node's precomputed decision vector.
// Outputs persist across crashes: a process that decided, crashed and
// re-decided a different value is an agreement violation with its own
// earlier output.
func (w *walkState) checkSafety(i int32, parentOuts []int8) {
	gn := w.r.nodes[i].gn
	n := len(parentOuts)
	for p := 0; p < n; p++ {
		if v := gn.decided[p]; v >= 0 {
			if prev := parentOuts[p]; prev >= 0 && prev != v {
				w.report(kindAgreement, i, fmt.Sprintf(
					"p%d output %d, crashed, and re-decided %d", p, prev, v))
			}
		}
	}
	first, firstP := -1, -1
	for p := 0; p < n; p++ {
		v := gn.outs[p]
		if v < 0 {
			continue
		}
		if !w.valid(int(v)) {
			w.report(kindValidity, i, fmt.Sprintf(
				"p%d decided %d, not an input of any process", p, v))
		}
		if first == -1 {
			first, firstP = int(v), p
		} else if int(v) != first {
			w.report(kindAgreement, i, fmt.Sprintf(
				"p%d decided %d but p%d decided %d", firstP, first, p, v))
		}
	}
}

// sweepFrame is one liveness-DFS stack frame: a record and the position
// of the next step successor to visit.
type sweepFrame struct {
	nd, idx int32
}

// sweepScratch is the pooled liveness-DFS working set: per-record colors
// (indexed by position in Result.nodes) and the explicit DFS stack.
// Pooled on the graph (Graph.postSweep) because, unlike the Result, it
// dies with the Check call.
type sweepScratch struct {
	color []uint8
	stack []sweepFrame
}

func (g *Graph) getSweep(n int) *sweepScratch {
	sc, _ := g.postSweep.Get().(*sweepScratch)
	if sc == nil {
		sc = &sweepScratch{}
	}
	if cap(sc.color) < n {
		sc.color = make([]uint8, n)
	} else {
		sc.color = sc.color[:n]
		clear(sc.color)
	}
	sc.stack = sc.stack[:0]
	return sc
}

// checkLiveness detects recoverable wait-freedom violations: a cycle in
// the step-successor graph means the adversary can schedule some process to
// take infinitely many steps without crashing and without deciding (crash
// edges strictly consume quota, so no cycle contains a crash). A step
// child keeps its parent's usage id, so it is found by probing the walk
// index with the graph node's step successor. Start nodes are swept in
// BFS discovery order, so the reported witness is deterministic for a
// given exploration. Only a complete walk is swept: every record's step
// children are then in the index.
func (r *Result) checkLiveness(w *walkState) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	sc := r.g.getSweep(len(r.nodes))
	defer r.g.postSweep.Put(sc)
	color := sc.color
	// Iterative DFS to avoid deep recursion on long chains.
	stack := sc.stack
	for start := range r.nodes {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], sweepFrame{nd: int32(start)})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			nd := &r.nodes[f.nd]
			if int(f.idx) < len(nd.gn.stepSucc) {
				child := r.lookup(nd.gn.stepSucc[f.idx], nd.used)
				f.idx++
				switch color[child] {
				case white:
					color[child] = gray
					stack = append(stack, sweepFrame{nd: child})
				case gray:
					sc.stack = stack
					w.report(kindWaitFreedom, child, fmt.Sprintf(
						"cycle of crash-free steps through %s: some process runs forever without deciding",
						r.nodes[child].gn.cfg))
					return
				}
				continue
			}
			color[f.nd] = black
			stack = stack[:len(stack)-1]
		}
	}
	sc.stack = stack
}

// ReachableDecisions returns the set of values decided in configurations
// reachable from the node identified by applying sigma to the initial
// configuration (respecting remaining crash quota), as a sorted slice.
// It is the engine behind valency computations.
func (r *Result) ReachableDecisions(start *node) map[int]bool {
	out := make(map[int]bool)
	i := r.indexOf(start)
	if i < 0 {
		return out
	}
	seen := make([]bool, len(r.nodes))
	seen[i] = true
	stack := []int32{i}
	var buf []int32
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range r.nodes[i].gn.decided {
			if v >= 0 {
				out[int(v)] = true
			}
		}
		buf = r.succ(buf[:0], i)
		for _, child := range buf {
			if !seen[child] {
				seen[child] = true
				stack = append(stack, child)
			}
		}
	}
	return out
}

// succ appends to dst the step and crash successors of record i that
// exist in this walk. Both are recomputed from the graph node rather than
// stored per record: a step child keeps i's usage id, a crash child of
// p has the id usage.plus memoizes. Records the walk expanded have
// expanded graph nodes, so their successors are read lock-free; a record
// a truncated walk left unexpanded has no step successors in the walk
// and, if no walk has expanded its graph node, finds its crash
// successors through the locked lookup (FindCritical refuses truncated
// results anyway).
func (r *Result) succ(dst []int32, i int32) []int32 {
	nd := r.nodes[i]
	if int(i) < r.walked {
		for _, cg := range nd.gn.stepSucc {
			if child := r.lookup(cg, nd.used); child >= 0 {
				dst = append(dst, child)
			}
		}
	}
	if nd.gn.done.Load() {
		for p, cg := range nd.gn.crashSucc {
			if cg == nil {
				continue
			}
			if child := r.lookup(cg, r.usage.plus(nd.used, p)); child >= 0 {
				dst = append(dst, child)
			}
		}
		return dst
	}
	for p := 0; p < r.pr.Procs(); p++ {
		next := CrashProc(r.pr, nd.gn.cfg, p, r.inputs[p])
		if child := r.lookup(r.g.find(next, nd.gn.outs), r.usage.plus(nd.used, p)); child >= 0 {
			dst = append(dst, child)
		}
	}
	return dst
}

// Node looks up the explored node reached by a schedule from the initial
// configuration, or nil if the schedule leaves the explored graph.
func (r *Result) Node(sigma schedule.Schedule) *node {
	cfg := InitialConfig(r.pr, r.inputs)
	var used uint32
	outs := mergeOuts(r.pr, cfg, freshOuts(r.pr.Procs()))
	for _, e := range sigma {
		if e.Crash {
			cfg = CrashProc(r.pr, cfg, e.P, r.inputs[e.P])
			used = r.usage.plus(used, e.P)
		} else {
			cfg = Step(r.pr, cfg, e.P)
			outs = mergeOuts(r.pr, cfg, outs)
		}
	}
	if i := r.lookup(r.g.find(cfg, outs), used); i >= 0 {
		return &r.nodes[i]
	}
	return nil
}

// InitNode returns the initial node of the exploration.
func (r *Result) InitNode() *node { return &r.nodes[0] }

// NodeConfig exposes a node's configuration (for tests and reports).
func NodeConfig(nd *node) Config { return nd.gn.cfg }
