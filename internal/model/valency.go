package model

import (
	"fmt"

	"repro/internal/schedule"
	"repro/internal/spec"
)

// Valence values: which of {0, 1} can still be decided from a node.
const (
	ValenceNone = 0
	Valence0    = 1 << 0
	Valence1    = 1 << 1
	Bivalent    = Valence0 | Valence1
)

// valency computes, for every walk record, the set of binary decisions
// reachable from it, by backward closure from deciding records over the
// reversed successor graph (kept in compressed form: preds[start[j]:
// start[j+1]] are record j's predecessors). The computation is
// cycle-safe and linear in the size of the explored graph.
func (r *Result) valency() []uint8 {
	if r.valences != nil {
		return r.valences
	}
	n := len(r.nodes)
	start := make([]int32, n+1)
	var edges, buf []int32 // edges holds (child, parent) pairs
	var deciding [2][]int32
	for i := range r.nodes {
		buf = r.succ(buf[:0], int32(i))
		for _, c := range buf {
			start[c+1]++
			edges = append(edges, c, int32(i))
		}
		for _, v := range r.nodes[i].gn.decided {
			if v == 0 || v == 1 {
				deciding[v] = append(deciding[v], int32(i))
			}
		}
	}
	for j := 0; j < n; j++ {
		start[j+1] += start[j]
	}
	preds := make([]int32, len(edges)/2)
	fill := append([]int32(nil), start[:n]...)
	for k := 0; k < len(edges); k += 2 {
		c := edges[k]
		preds[fill[c]] = edges[k+1]
		fill[c]++
	}
	val := make([]uint8, n)
	for v := 0; v <= 1; v++ {
		bit := uint8(1) << uint(v)
		queue := append([]int32(nil), deciding[v]...)
		for _, i := range queue {
			val[i] |= bit
		}
		for len(queue) > 0 {
			i := queue[0]
			queue = queue[1:]
			for _, p := range preds[start[i]:start[i+1]] {
				if val[p]&bit == 0 {
					val[p] |= bit
					queue = append(queue, p)
				}
			}
		}
	}
	r.valences = val
	return val
}

// Valence returns the decision-reachability mask of a node with respect to
// the explored (crash-budgeted) execution set: Bivalent if both 0 and 1
// are decidable, Valence0/Valence1 if univalent, ValenceNone if no
// decision is reachable (only possible for truncated or broken protocols).
func (r *Result) Valence(nd *node) int {
	i := r.indexOf(nd)
	if i < 0 {
		return ValenceNone
	}
	return int(r.valency()[i])
}

// CriticalInfo describes a critical execution found by FindCritical and
// its Observation 11 classification.
type CriticalInfo struct {
	// Trace is the critical execution alpha (a schedule from the initial
	// configuration).
	Trace schedule.Schedule
	// Config is the critical configuration C-alpha.
	Config Config
	// Object is the object every process is poised to access (Lemma 9).
	Object int
	// Teams[p] is the valency of the step of p from the critical
	// configuration: p is "on team v" (Section 3).
	Teams []int
	// U[x] is the set of object values reachable by nonempty schedules in
	// S(P) starting with a team-x process, each process applying its
	// poised operation (the sets U_v before Observation 11).
	U [2]map[spec.Value]bool
	// Class is "n-recording", "0-hiding", "1-hiding", or "colliding"
	// (Observation 11's trichotomy; n-recording takes priority when both
	// n-recording and v-hiding hold).
	Class string
}

// ErrNoCritical is returned when no critical execution exists in the
// explored graph (e.g. the initial configuration is already univalent).
var ErrNoCritical = fmt.Errorf("model: no critical execution found")

// FindCritical searches the explored graph for a critical execution in the
// sense of Lemma 6(a), with respect to the crash-budgeted execution set
// explored by Check: an execution alpha such that alpha is bivalent and
// every nonempty extension within the budget is univalent. It returns the
// first such execution found by BFS (hence a shortest one) together with
// its classification.
func FindCritical(r *Result) (*CriticalInfo, error) {
	if r.Truncated {
		return nil, fmt.Errorf("model: exploration truncated; criticality would be unsound")
	}
	val := r.valency()
	if val[0]&Bivalent != Bivalent {
		return nil, fmt.Errorf("%w: initial configuration is not bivalent", ErrNoCritical)
	}
	// BFS through bivalent nodes.
	seen := make([]bool, len(r.nodes))
	seen[0] = true
	queue := []int32{0}
	var succ []int32
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		succ = r.succ(succ[:0], i)
		anyBivalent := false
		for _, s := range succ {
			if val[s]&Bivalent == Bivalent {
				anyBivalent = true
				if !seen[s] {
					seen[s] = true
					queue = append(queue, s)
				}
			}
		}
		if !anyBivalent {
			return r.classify(i)
		}
	}
	return nil, fmt.Errorf("%w: all bivalent nodes have bivalent successors (cycle of bivalence)", ErrNoCritical)
}

// classify computes Lemma 9 (same object), the team structure and the
// Observation 11 classification for critical record i.
func (r *Result) classify(i int32) (*CriticalInfo, error) {
	n := r.pr.Procs()
	val := r.valency()
	objs := r.pr.Objects()
	nd := r.nodes[i]
	cfg := nd.gn.cfg

	info := &CriticalInfo{
		Trace:  r.trace(i),
		Config: cfg,
		Teams:  make([]int, n),
		U:      [2]map[spec.Value]bool{make(map[spec.Value]bool), make(map[spec.Value]bool)},
	}

	// Lemma 9: every process is poised to apply an operation to the same
	// object in the critical configuration.
	obj := -1
	ops := make([]spec.Op, n)
	for p := 0; p < n; p++ {
		a := r.pr.Poised(p, cfg.States[p])
		if a.Decided {
			return nil, fmt.Errorf("model: process p%d already decided in critical configuration", p)
		}
		if obj == -1 {
			obj = a.Obj
		} else if a.Obj != obj {
			return nil, fmt.Errorf("model: Lemma 9 violated — p%d poised on object %d, others on %d",
				p, a.Obj, obj)
		}
		ops[p] = a.Op
	}
	info.Object = obj

	// Teams: the valency of each step successor. In a critical node every
	// successor is univalent. No process has decided (checked above), so
	// the node's expansion carries exactly one step successor per
	// process — read canonically instead of recomputing the transition.
	for k, p := range nd.gn.stepP {
		cn := r.lookup(nd.gn.stepSucc[k], nd.used)
		if cn < 0 {
			return nil, fmt.Errorf("model: internal error — step successor of critical node not explored")
		}
		switch val[cn] {
		case Valence0:
			info.Teams[p] = 0
		case Valence1:
			info.Teams[p] = 1
		default:
			return nil, fmt.Errorf("model: step of p%d from critical node is not univalent (mask %d)",
				p, val[cn])
		}
	}

	// U_x sets: all object values produced by nonempty schedules in S(P)
	// whose first process is on team x, each process applying its poised
	// operation to the common object.
	ft := objs[obj].Type
	cur := cfg.Vals[obj]
	inSched := make([]bool, n)
	var dfs func(v spec.Value, team int)
	dfs = func(v spec.Value, team int) {
		info.U[team][v] = true
		for p := 0; p < n; p++ {
			if inSched[p] {
				continue
			}
			inSched[p] = true
			dfs(ft.Apply(v, ops[p]).Next, team)
			inSched[p] = false
		}
	}
	for p := 0; p < n; p++ {
		inSched[p] = true
		dfs(ft.Apply(cur, ops[p]).Next, info.Teams[p])
		inSched[p] = false
	}

	info.Class = classifyUTeams(info.U, info.Teams, cur)
	return info, nil
}

// classifyUTeams implements Observation 11's trichotomy given the U sets,
// the team assignment and the current object value.
func classifyUTeams(u [2]map[spec.Value]bool, teams []int, cur spec.Value) string {
	disjoint := true
	for v := range u[0] {
		if u[1][v] {
			disjoint = false
			break
		}
	}
	if !disjoint {
		return "colliding"
	}
	teamSize := [2]int{}
	for _, t := range teams {
		teamSize[t]++
	}
	for x := 0; x <= 1; x++ {
		if u[x][cur] {
			if teamSize[1-x] == 1 {
				return "n-recording"
			}
			return fmt.Sprintf("%d-hiding", x)
		}
	}
	// cur not in either U set and the sets are disjoint: n-recording with
	// a vacuous side condition.
	return "n-recording"
}
