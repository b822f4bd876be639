// Package decider defines the pluggable level-decider backend interface
// and its registry: the seam between the engine's dispatch layer and the
// algorithms that decide the paper's two level properties (n-discerning,
// n-recording) for a finite type.
//
// Three backends register at init:
//
//   - "search" (the default) wraps the recursive-search deciders of
//     internal/discern and internal/record: a symmetry-reduced
//     enumeration of operation assignments with a shared-prefix DFS over
//     schedules per assignment.
//   - "bitset" is a semi-symbolic decider that encodes schedule
//     configurations and output histories as packed fixed-width words:
//     per assignment it sweeps subset-indexed frontier arrays (a forward
//     first-mover sweep per initial value and, for discerning only, one
//     backward descendant-final-value sweep)
//     instead of recursing over individual schedules, so observation
//     sets for all 2^n schedule prefixes are computed set-at-a-time.
//   - "auto" dispatches per call on n alone: "bitset" when
//     n <= BitsetMaxN (16 — the bitset backend's uint32 first-mover
//     mask and subset-index word widths cap it there), "search" above.
//     Because every backend is byte-identical, the switchover is
//     unobservable in results; "auto" simply picks the faster engine
//     for the level at hand.
//
// # The contract backends must honor
//
// Every backend must return results identical to the canonical "search"
// backend, byte for byte: the same decision, and on a positive decision
// the same witness — the lexicographically first witnessing operation
// assignment (in the symmetry-reduced tuple order of
// discern.TupleSpace), completed by the smallest witnessing initial
// value u and the deterministic team coloring of discern's
// union-find/TwoColor (discerning) or record.ColorFinal (recording).
// Sharded runs must equal serial runs exactly. This identity is what the
// differential oracle in internal/decider/difftest enforces over seeded
// random protocols (internal/protogen), and it is what lets the engine's
// decision cache stay backend-free: a decision computed by any backend
// is valid for all of them.
//
// Backends are selected by name: engine.WithBackend threads a name
// through the engine, the serve layer accepts a "backend" field on its
// analysis endpoints and jobs, and cmd tools share a -backend flag. Get
// resolves names, defaulting the empty string to "search" so existing
// callers and wire clients are unaffected.
package decider
