package record

import (
	"context"
	"fmt"

	"repro/internal/discern"
	"repro/internal/spec"
)

// ShardReport describes one finished shard of a sharded level search; it
// is the same report type the discerning side emits, so one progress
// consumer serves both properties.
type ShardReport = discern.ShardReport

// ShardOptions configures a sharded recording check.
type ShardOptions struct {
	// Options is the underlying decision procedure's configuration.
	Options
	// OnShard, if non-nil, is called once per shard as it finishes, from
	// the shard's worker goroutine.
	OnShard func(ShardReport)
}

// ShardedIsNRecording is IsNRecordingCtx with the operation-assignment
// enumeration split across `shards` concurrent workers, exactly as
// discern.ShardedIsNDiscerning shards the discerning scan: a
// work-stealing chunk queue over the same symmetry-reduced tuple space,
// first-witness early exit, and deterministic lowest-ranked-witness
// selection so the sharded and serial runs return identical results.
// shards below 1 are clamped to 1.
func ShardedIsNRecording(ctx context.Context, t *spec.FiniteType, n, shards int, opts ShardOptions) (bool, *Witness, error) {
	if n < 2 {
		panic(fmt.Sprintf("record: n-recording is undefined for n=%d (need n >= 2)", n))
	}
	space := discern.NewTupleSpace(t.NumOps(), n, opts.Naive)
	w, err := discern.SearchSharded(ctx, space, shards, func(ops []spec.Op) *Witness {
		return checkAssignment(t, n, ops, opts.Options)
	}, opts.OnShard)
	if err != nil {
		return false, nil, err
	}
	return w != nil, w, nil
}
