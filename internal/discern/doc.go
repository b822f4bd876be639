// Package discern decides Ruppert's n-discerning property for finite
// deterministic types.
//
// A deterministic type T is n-discerning (Section 2 of the paper, adapted
// from Ruppert 2000) if there exist a value u, a partition of processes
// p_0..p_{n-1} into two nonempty teams T_0, T_1, and an operation o_i for
// each p_i, such that for every j the pair sets R_{0,j} and R_{1,j} are
// disjoint, where R_{x,j} collects the pairs (response of p_j's operation,
// resulting object value) over all schedules in S({p_0..p_{n-1}}) that
// contain p_j and start with a process in T_x.
//
// Ruppert proved that a deterministic, readable type has consensus number
// at least n if and only if it is n-discerning; the property is decidable
// in finite time for finite types, and this package is that decision
// procedure.
//
// Implementation: for a fixed value u and operation assignment, a partition
// (T_0, T_1) works iff no "constraint set" is split across teams, where a
// constraint set is the set of first-movers f that produce the same
// (response, value) pair for the same observer j. We union-find the
// first-movers within each constraint set; a valid partition exists iff the
// union-find has at least two components. This avoids enumerating the
// 2^n - 2 partitions.
//
// # Concurrency and byte-stability
//
// The deciders are pure functions of their inputs and safe for
// concurrent use. The operation-assignment space is enumerated through
// a deterministic rank/unrank TupleSpace, so sharded scans return
// exactly the serial decider's answer, including the same
// (lowest-ranked) witness. ShardedIsNDiscerning schedules shards over a
// work-stealing chunk queue: ranks are split into fixed-size chunks,
// workers atomically claim the next unclaimed chunk, and a shared
// best-rank bound prunes chunks that can no longer hold the first
// witness — a rank is only ever skipped when a strictly lower witness
// is already in hand, so the lowest-ranked witness is found regardless
// of claim interleaving. Witness JSON encoding round-trips
// byte-identically — the contract the persistent decision store relies
// on.
package discern
