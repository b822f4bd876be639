// Package model is the valency engine: an explicit-state model checker for
// consensus protocols in the crash-recovery shared memory model of
// Section 2 of the paper.
//
// Protocols are deterministic per-process state machines over shared
// objects with finite-type sequential specifications. The checker
// exhaustively explores reachable configurations under per-process crash
// budgets, verifies agreement / validity / (recoverable) wait-freedom,
// computes bivalence and univalence of configurations, searches for
// critical executions (Lemma 6), and classifies critical configurations as
// n-recording, v-hiding, or colliding (Observation 11).
//
// # The shared exploration graph
//
// All exploration runs on a Graph: a canonicalized store of
// (configuration, output-history) nodes whose successors are computed
// exactly once, with singleflight expansion. Node identity is a packed
// fixed-width []uint64: NewGraph closes over the protocol's reachable
// state machine (the same canonical closure structural fingerprints
// walk) and assigns each reachable per-process state string a dense
// uint64 id, so a node's states, object values and output history pack
// into a handful of words — fingerprinting is a word-mix loop,
// equality is == per word, and the graph's intern index is an
// open-addressed, linear-probed table over those words (no collision
// buckets, no string hashing on the hot path). States outside the
// closure — alien imported snapshots — extend the dictionary
// copy-on-write under the graph lock. Crash usage is deliberately NOT
// part of node identity (transitions do not depend on it); each walk
// overlays its own (node, crash-usage) bookkeeping in a per-walk
// open-addressed table probed on the node's precomputed hash mixed
// with an interned crash-usage id, reproducing the serial checker's
// (configuration, crash-usage, output-history) dedup exactly.
//
// Check builds a one-shot Graph; batch callers (engine.CheckBatch)
// walk one Graph per input vector, long-lived callers (the engine's
// graph cache) keep Graphs warm across calls, and Theorem13ChainOpts
// walks every chain stage over one Graph — all share every transition,
// output-merge and packing computation.
//
// # Walk records
//
// A walk stores one compact 24-byte record per (graph node,
// crash-usage) pair it reaches: a handle on the graph node, the usage
// id, the index of the record it was discovered from and the packed
// event taken. Configurations, output histories, decision vectors and
// successor lists are read through the graph node, never copied.
// Usage vectors are interned once per walk (id 0 is the all-zero
// vector, so a crash-free walk has exactly one), with the id after one
// more crash of p memoized, so usage comparisons are integer compares.
// The records form one slice in BFS discovery order that is also the
// walk's queue; liveness, valency and critical search recompute a
// record's step and crash children from its graph node plus a probe of
// the walk index rather than storing them. The *node handles Node and
// InitNode return point into that slice.
//
// # Concurrency and ownership
//
// A Graph is safe for concurrent use by any number of Check walks, and
// only ever grows: eviction by a caching layer merely drops a reference,
// in-flight walks finish unharmed. The intern table and the interning
// dictionary's extension path are guarded by the graph mutex (the
// dictionary itself is read lock-free through an atomic pointer);
// per-node expansion runs under a per-node once. A Result is owned by
// the caller that obtained it and is not safe for concurrent use: its
// lazily computed valencies and lazily interned usage vectors mean even
// read-style methods (Node, Valence, FindCritical, ReachableDecisions)
// must not race. Walk-internal scratch (expansion buffers, liveness
// sweep state) is pooled per graph and never escapes into Results; the
// walk records, their index and the usage table live in the Result and
// die with it.
//
// # Byte-stability guarantees
//
// Exploration is deterministic: BFS discovery order, violation traces
// and node counts depend only on the protocol and options, never on
// scheduling (the liveness sweep walks nodes in discovery order, not map
// order). Shared-graph walks are byte-identical to serial ones, and
// every stage of a shared-graph Theorem 13 chain is byte-identical to a
// serial Check from that stage's start followed by FindCritical.
package model
