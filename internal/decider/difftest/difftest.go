package difftest

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/decider"
	"repro/internal/discern"
	"repro/internal/protodef"
	"repro/internal/record"
	"repro/internal/spec"
)

// CorpusEntry is the on-disk form of one golden artifact under
// testdata/protogen: the generator seed it came from, the model-check
// parameters, and the full descriptor. The descriptor is committed
// verbatim — the golden test replays it as stored rather than
// regenerating from the seed, so generator changes cannot silently
// rewrite the corpus.
type CorpusEntry struct {
	Seed       uint64               `json:"seed"`
	Inputs     []int                `json:"inputs"`
	CrashQuota []int                `json:"crashQuota,omitempty"`
	Descriptor *protodef.Descriptor `json:"descriptor"`
}

// checkTeams validates the shared witness shape: one team per process,
// labels in {0, 1}, both teams nonempty, operations within the type.
func checkTeams(t *spec.FiniteType, n int, teams []int, ops []spec.Op) error {
	if len(teams) != n || len(ops) != n {
		return fmt.Errorf("witness has %d teams / %d ops for n=%d", len(teams), len(ops), n)
	}
	var seen [2]bool
	for i, team := range teams {
		if team != 0 && team != 1 {
			return fmt.Errorf("teams[%d] = %d, not a two-coloring", i, team)
		}
		seen[team] = true
	}
	if !seen[0] || !seen[1] {
		return fmt.Errorf("teams %v leave one side empty", teams)
	}
	for i, o := range ops {
		if int(o) < 0 || int(o) >= t.NumOps() {
			return fmt.Errorf("ops[%d] = %d out of range for %s", i, o, t.Name())
		}
	}
	return nil
}

// schedules enumerates every nonempty ordered schedule of distinct
// processes from {0..n-1} and calls visit with the schedule. The slice
// is reused across calls; visit must not retain it.
func schedules(n int, visit func(order []int)) {
	used := make([]bool, n)
	order := make([]int, 0, n)
	var rec func()
	rec = func() {
		if len(order) > 0 {
			visit(order)
		}
		for p := 0; p < n; p++ {
			if used[p] {
				continue
			}
			used[p] = true
			order = append(order, p)
			rec()
			order = order[:len(order)-1]
			used[p] = false
		}
	}
	rec()
}

// VerifyDiscern checks that w certifies t as n-discerning, by the
// definition: over every nonempty schedule of the assigned operations
// from U, each observation — a scheduled process together with its
// response and the schedule's final object value — must determine the
// first mover's team. The check re-simulates every schedule from U with
// nothing shared with the deciders under test.
func VerifyDiscern(t *spec.FiniteType, n int, w *discern.Witness) error {
	if w == nil {
		return fmt.Errorf("positive discerning decision with nil witness")
	}
	if w.N != n {
		return fmt.Errorf("witness N=%d for a n=%d decision", w.N, n)
	}
	if int(w.U) < 0 || int(w.U) >= t.NumValues() {
		return fmt.Errorf("witness U=%d out of range", w.U)
	}
	if err := checkTeams(t, n, w.Teams, w.Ops); err != nil {
		return err
	}
	type obs struct {
		j    int
		resp spec.Response
		val  spec.Value
	}
	team := make(map[obs]int)
	var bad error
	resps := make([]spec.Response, n)
	schedules(n, func(order []int) {
		if bad != nil {
			return
		}
		val := w.U
		for _, p := range order {
			e := t.Apply(val, w.Ops[p])
			resps[p] = e.Resp
			val = e.Next
		}
		first := w.Teams[order[0]]
		for _, j := range order {
			k := obs{j, resps[j], val}
			if prev, ok := team[k]; ok {
				if prev != first {
					bad = fmt.Errorf("observation (j=%d resp=%d final=%d) reachable from both teams (witness %s)",
						j, k.resp, k.val, w)
				}
			} else {
				team[k] = first
			}
		}
	})
	return bad
}

// VerifyRecord checks that w certifies t as n-recording: every final
// value reachable by a nonempty schedule from U must be producible from
// one team only (condition 1), and when U itself is producible, the team
// opposite U's producers must be a single process that cannot produce U
// (condition 2 — a lone opponent cannot fake the untouched value).
// Schedules are re-simulated from U independently of the deciders.
func VerifyRecord(t *spec.FiniteType, n int, w *record.Witness) error {
	if w == nil {
		return fmt.Errorf("positive recording decision with nil witness")
	}
	if w.N != n {
		return fmt.Errorf("witness N=%d for a n=%d decision", w.N, n)
	}
	if int(w.U) < 0 || int(w.U) >= t.NumValues() {
		return fmt.Errorf("witness U=%d out of range", w.U)
	}
	if err := checkTeams(t, n, w.Teams, w.Ops); err != nil {
		return err
	}
	// firstMask[v] = bitmask of first movers that can leave the object
	// at v via some nonempty schedule.
	firstMask := make(map[spec.Value]uint32)
	schedules(n, func(order []int) {
		val := w.U
		for _, p := range order {
			val = t.Apply(val, w.Ops[p]).Next
		}
		firstMask[val] |= 1 << uint(order[0])
	})
	for v, mask := range firstMask {
		team := -1
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			if team == -1 {
				team = w.Teams[i]
			} else if w.Teams[i] != team {
				return fmt.Errorf("final value %d producible from both teams (witness %s)", v, w)
			}
		}
	}
	maskU := firstMask[w.U]
	if maskU == 0 {
		return nil
	}
	producerTeam := -1
	for i := 0; i < n; i++ {
		if maskU&(1<<uint(i)) != 0 {
			producerTeam = w.Teams[i]
			break
		}
	}
	opposite := 1 - producerTeam
	lone := -1
	for i := 0; i < n; i++ {
		if w.Teams[i] != opposite {
			continue
		}
		if lone != -1 {
			return fmt.Errorf("U=%d producible but team %d has more than one process (witness %s)",
				w.U, opposite, w)
		}
		lone = i
	}
	if maskU&(1<<uint(lone)) != 0 {
		return fmt.Errorf("lone opponent p%d can itself produce U=%d (witness %s)", lone, w.U, w)
	}
	return nil
}

// Check is the differential oracle for one (type, n): it runs every
// registered backend serially and at each of the given shard counts
// (the sharded runs go through the work-stealing scheduler), and fails
// on any divergence — in decision, in witness bytes (across backends or
// serial-vs-sharded), or in a positive witness that does not
// independently verify. shards entries must be >= 1; pass {1, 2, 7} to
// cover degenerate, even, and uneven sharding.
func Check(ctx context.Context, t *spec.FiniteType, n int, shards []int) error {
	names := decider.Names()
	if len(names) < 2 {
		return fmt.Errorf("differential test needs at least 2 backends, have %v", names)
	}

	// Discerning.
	var refOK bool
	var refW *discern.Witness
	for bi, name := range names {
		d, err := decider.Get(name)
		if err != nil {
			return err
		}
		ok, w, err := d.IsNDiscerning(ctx, t, n)
		if err != nil {
			return fmt.Errorf("%s: discerning n=%d: %w", name, n, err)
		}
		if ok {
			if err := VerifyDiscern(t, n, w); err != nil {
				return fmt.Errorf("%s: discerning n=%d witness invalid: %w", name, n, err)
			}
		} else if w != nil {
			return fmt.Errorf("%s: negative discerning decision carries a witness", name)
		}
		if bi == 0 {
			refOK, refW = ok, w
		} else if ok != refOK || !reflect.DeepEqual(w, refW) {
			return fmt.Errorf("discerning n=%d: %s says (%v, %v), %s says (%v, %v)",
				n, names[0], refOK, refW, name, ok, w)
		}
		for _, s := range shards {
			sok, sw, err := d.ShardedIsNDiscerning(ctx, t, n, s, nil)
			if err != nil {
				return fmt.Errorf("%s: discerning n=%d shards=%d: %w", name, n, s, err)
			}
			if sok != ok || !reflect.DeepEqual(sw, w) {
				return fmt.Errorf("%s: discerning n=%d shards=%d diverges from serial: (%v, %v) vs (%v, %v)",
					name, n, s, sok, sw, ok, w)
			}
		}
	}

	// Recording.
	var refROK bool
	var refRW *record.Witness
	for bi, name := range names {
		d, err := decider.Get(name)
		if err != nil {
			return err
		}
		ok, w, err := d.IsNRecording(ctx, t, n)
		if err != nil {
			return fmt.Errorf("%s: recording n=%d: %w", name, n, err)
		}
		if ok {
			if err := VerifyRecord(t, n, w); err != nil {
				return fmt.Errorf("%s: recording n=%d witness invalid: %w", name, n, err)
			}
		} else if w != nil {
			return fmt.Errorf("%s: negative recording decision carries a witness", name)
		}
		if bi == 0 {
			refROK, refRW = ok, w
		} else if ok != refROK || !reflect.DeepEqual(w, refRW) {
			return fmt.Errorf("recording n=%d: %s says (%v, %v), %s says (%v, %v)",
				n, names[0], refROK, refRW, name, ok, w)
		}
		for _, s := range shards {
			sok, sw, err := d.ShardedIsNRecording(ctx, t, n, s, nil)
			if err != nil {
				return fmt.Errorf("%s: recording n=%d shards=%d: %w", name, n, s, err)
			}
			if sok != ok || !reflect.DeepEqual(sw, w) {
				return fmt.Errorf("%s: recording n=%d shards=%d diverges from serial: (%v, %v) vs (%v, %v)",
					name, n, s, sok, sw, ok, w)
			}
		}
	}
	return nil
}
