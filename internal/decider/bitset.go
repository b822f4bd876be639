package decider

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/discern"
	"repro/internal/record"
	"repro/internal/spec"
	"repro/internal/uf"
)

// BitsetMaxN is the largest process count the bitset backend accepts:
// its frontier arrays are indexed by schedule subset, so memory is
// O(2^n * numValues) words per worker. 16 is far beyond what assignment
// enumeration can sweep in practice while keeping the worst-case
// scratch small; larger n errors with a pointer at the search backend.
const BitsetMaxN = 16

// bitsetDecider is the "bitset" backend: a semi-symbolic level decider.
// It enumerates operation assignments exactly like the search backend
// (same symmetry-reduced tuple order), but decides each assignment with
// two subset-indexed frontier sweeps over packed words instead of a DFS
// over individual schedules:
//
//   - reach[set][v] is the packed first-mover set of all orderings of
//     exactly `set` that drive the object from u to value v, built by
//     one forward sweep over subsets in ascending mask order (every
//     superset has a larger mask, so each frontier is complete when
//     read).
//   - desc[set][v] is the packed bitset of final values reachable from
//     v by appending any ordering of any subset of the processes not in
//     `set`, built by one backward sweep in descending mask order. It
//     does not depend on u, so a discerning check builds it once per
//     assignment; a recording check, which reads only reach, never does.
//
// A schedule observation "process j saw response r and the object ended
// at value v" then decomposes as prefix-set + j + suffix: for every set
// B not containing j and every value b with reach[B][b] != 0, process j
// responds resp(b, ops[j]) and the final value ranges over
// desc[B+j][next(b, ops[j])] — so the per-(j, response, final-value)
// first-mover masks of ALL schedules accumulate in one pass over 2^n
// subsets. The masks feed the exact colorings of the search backend
// (union-find TwoColor for discerning, record.ColorFinal for
// recording), which makes the two backends' witnesses byte-identical.
type bitsetDecider struct{}

func newBitsetDecider() bitsetDecider { return bitsetDecider{} }

func (bitsetDecider) Name() string { return "bitset" }

func (bitsetDecider) IsNDiscerning(ctx context.Context, t *spec.FiniteType, n int) (bool, *discern.Witness, error) {
	return bitsetDecider{}.ShardedIsNDiscerning(ctx, t, n, 1, nil)
}

func (bitsetDecider) IsNRecording(ctx context.Context, t *spec.FiniteType, n int) (bool, *record.Witness, error) {
	return bitsetDecider{}.ShardedIsNRecording(ctx, t, n, 1, nil)
}

func (bitsetDecider) ShardedIsNDiscerning(ctx context.Context, t *spec.FiniteType, n, shards int, onShard func(discern.ShardReport)) (bool, *discern.Witness, error) {
	if n < 2 {
		panic(fmt.Sprintf("decider: n-discerning is undefined for n=%d (need n >= 2)", n))
	}
	l, err := newBitsetLevel(t, n)
	if err != nil {
		return false, nil, err
	}
	space := discern.NewTupleSpace(t.NumOps(), n, false)
	w, err := discern.SearchSharded(ctx, space, shards, l.checkDiscern, onShard)
	if err != nil {
		return false, nil, err
	}
	return w != nil, w, nil
}

func (bitsetDecider) ShardedIsNRecording(ctx context.Context, t *spec.FiniteType, n, shards int, onShard func(record.ShardReport)) (bool, *record.Witness, error) {
	if n < 2 {
		panic(fmt.Sprintf("decider: n-recording is undefined for n=%d (need n >= 2)", n))
	}
	l, err := newBitsetLevel(t, n)
	if err != nil {
		return false, nil, err
	}
	space := discern.NewTupleSpace(t.NumOps(), n, false)
	w, err := discern.SearchSharded(ctx, space, shards, l.checkRecord, onShard)
	if err != nil {
		return false, nil, err
	}
	return w != nil, w, nil
}

// bitsetLevel is one level check's precomputed context: the type's
// transition tables flattened to dense arrays plus a pool of per-worker
// sweep scratch (the check closures run concurrently under sharding).
type bitsetLevel struct {
	n, V, O int
	// R is the dense response-class count; respID[v*O+o] interns the
	// response of (value v, op o) into [0, R).
	R      int
	respID []int
	// next[v*O+o] is the successor value of (value v, op o).
	next []spec.Value
	pool sync.Pool
}

// bitsetScratch is one worker's sweep state, reused across assignments.
type bitsetScratch struct {
	// reach[set*V+v]: first-mover masks of orderings of exactly set
	// ending at value v (or-accumulated; zeroed per initial value).
	reach []uint32
	// desc[(set*V+v)*W .. +W]: bitset of final values reachable from v
	// past set (fully overwritten by each backward sweep, no zeroing
	// needed).
	desc []uint64
	// obs[(j*R+r)*V+v]: first-mover masks per observation (discerning).
	obs []uint32
	// finalMask[v]: first-mover masks per final value (recording).
	finalMask []uint32
}

// newBitsetLevel validates the dimensions and flattens t's tables.
func newBitsetLevel(t *spec.FiniteType, n int) (*bitsetLevel, error) {
	if n > BitsetMaxN {
		return nil, fmt.Errorf("decider: bitset backend supports n <= %d, got n=%d (use backend=search)", BitsetMaxN, n)
	}
	V, O := t.NumValues(), t.NumOps()
	l := &bitsetLevel{
		n: n, V: V, O: O,
		respID: make([]int, V*O),
		next:   make([]spec.Value, V*O),
	}
	seen := make(map[spec.Response]int)
	for v := 0; v < V; v++ {
		for o := 0; o < O; o++ {
			e := t.Apply(spec.Value(v), spec.Op(o))
			id, ok := seen[e.Resp]
			if !ok {
				id = len(seen)
				seen[e.Resp] = id
			}
			l.respID[v*O+o] = id
			l.next[v*O+o] = e.Next
		}
	}
	l.R = len(seen)
	W := l.words()
	size := 1 << n
	l.pool.New = func() any {
		return &bitsetScratch{
			reach:     make([]uint32, size*V),
			desc:      make([]uint64, size*V*W),
			obs:       make([]uint32, n*l.R*V),
			finalMask: make([]uint32, V),
		}
	}
	return l, nil
}

// words is the per-cell word count of the final-value bitsets.
func (l *bitsetLevel) words() int { return (l.V + 63) / 64 }

// forward fills s.reach for one (assignment, initial value).
func (l *bitsetLevel) forward(s *bitsetScratch, ops []spec.Op, u spec.Value) {
	n, V, O := l.n, l.V, l.O
	full := 1<<n - 1
	clear(s.reach[:(full+1)*V])

	// Forward: seed the singleton sets, then extend each completed
	// frontier by every unscheduled process. Ascending mask order makes
	// every reach[set] complete before any superset reads it.
	for f := 0; f < n; f++ {
		s.reach[(1<<f)*V+int(l.next[int(u)*O+int(ops[f])])] |= 1 << uint(f)
	}
	for set := 1; set <= full; set++ {
		if set == full {
			break // nothing left to extend
		}
		row := s.reach[set*V : (set+1)*V]
		for v, fm := range row {
			if fm == 0 {
				continue
			}
			rest := full &^ set
			for rest != 0 {
				p := bits.TrailingZeros32(uint32(rest))
				rest &= rest - 1
				s.reach[(set|1<<p)*V+int(l.next[v*O+int(ops[p])])] |= fm
			}
		}
	}
}

// backward fills s.desc for one assignment. desc does not depend on the
// initial value, so a discerning check builds it once per assignment;
// a recording check never reads it.
func (l *bitsetLevel) backward(s *bitsetScratch, ops []spec.Op) {
	n, V, O, W := l.n, l.V, l.O, l.words()
	full := 1<<n - 1
	// desc[full][v] = {v}; below, union over one-step extensions.
	// Descending mask order makes every desc[set|p] complete before
	// desc[set] reads it. Cells are fully overwritten.
	for set := full; set >= 0; set-- {
		rest := full &^ set
		for v := 0; v < V; v++ {
			cell := s.desc[(set*V+v)*W : (set*V+v+1)*W]
			clear(cell)
			cell[v>>6] = 1 << uint(v&63)
			r := rest
			for r != 0 {
				p := bits.TrailingZeros32(uint32(r))
				r &= r - 1
				child := s.desc[((set|1<<p)*V+int(l.next[v*O+int(ops[p])]))*W:]
				for w := 0; w < W; w++ {
					cell[w] |= child[w]
				}
			}
		}
	}
}

// accumulate merges one decomposition step into the observation masks:
// prefix-set B at value b (first movers fm, or the j-first case), then
// process j, then any suffix. Final values come from desc[B+j].
func (l *bitsetLevel) accumulate(s *bitsetScratch, ops []spec.Op, j int, set int, b int, fm uint32) {
	V, O, W := l.V, l.O, l.words()
	cell := int(b)*O + int(ops[j])
	r := l.respID[cell]
	after := (set | 1<<j) * V
	finals := s.desc[(after+int(l.next[cell]))*W:]
	base := (j*l.R + r) * V
	for w := 0; w < W; w++ {
		word := finals[w]
		for word != 0 {
			v := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			s.obs[base+v] |= fm
		}
	}
}

// checkDiscern decides one assignment for the discerning property,
// returning the witness of the smallest witnessing initial value.
func (l *bitsetLevel) checkDiscern(ops []spec.Op) *discern.Witness {
	s := l.pool.Get().(*bitsetScratch)
	defer l.pool.Put(s)
	n, V := l.n, l.V
	full := 1<<n - 1
	l.backward(s, ops)
	for u := 0; u < V; u++ {
		l.forward(s, ops, spec.Value(u))
		clear(s.obs)
		for j := 0; j < n; j++ {
			// j first: empty prefix at value u, first mover j itself.
			l.accumulate(s, ops, j, 0, u, 1<<uint(j))
			// Nonempty prefixes: every set avoiding j, every value the
			// prefix can reach.
			for set := 1; set <= full; set++ {
				if set&(1<<j) != 0 {
					continue
				}
				row := s.reach[set*V : (set+1)*V]
				for b, fm := range row {
					if fm != 0 {
						l.accumulate(s, ops, j, set, b, fm)
					}
				}
			}
		}
		groups := uf.New(n)
		for _, fm := range s.obs {
			groups.UniteMask(fm)
		}
		if teams := groups.TwoColor(); teams != nil {
			return &discern.Witness{N: n, U: spec.Value(u), Teams: teams,
				Ops: append([]spec.Op(nil), ops...)}
		}
	}
	return nil
}

// checkRecord decides one assignment for the recording property. The
// final-value first-mover masks are the row sums of the forward sweep;
// record.ColorFinal turns them into the canonical team assignment.
func (l *bitsetLevel) checkRecord(ops []spec.Op) *record.Witness {
	s := l.pool.Get().(*bitsetScratch)
	defer l.pool.Put(s)
	n, V := l.n, l.V
	full := 1<<n - 1
	for u := 0; u < V; u++ {
		l.forward(s, ops, spec.Value(u))
		clear(s.finalMask)
		for set := 1; set <= full; set++ {
			row := s.reach[set*V : (set+1)*V]
			for v, fm := range row {
				s.finalMask[v] |= fm
			}
		}
		masks := make(map[spec.Value]uint32, V)
		for v, fm := range s.finalMask {
			if fm != 0 {
				masks[spec.Value(v)] = fm
			}
		}
		if teams := record.ColorFinal(n, masks, spec.Value(u)); teams != nil {
			return &record.Witness{N: n, U: spec.Value(u), Teams: teams,
				Ops: append([]spec.Op(nil), ops...)}
		}
	}
	return nil
}
