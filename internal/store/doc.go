// Package store persists engine decision caches across processes: every
// memoized level decision (one propKey → propResult entry of
// internal/engine.Cache, in its exported engine.Entry form) is written to
// a disk-backed store and warm-loaded on the next Open, so the
// exponential discerning/recording searches are paid once per type and
// level, ever, rather than once per process.
//
// # On-disk layout
//
// A store at path P owns two files, both internal/framelog logs with
// magic "RPRDECSN" and version 2 (framelog's doc is the one description
// of the header, the frame layout and the crash-safety contracts):
//
//   - P — the compacted snapshot, replaced atomically by Compact
//     (framelog.WriteFile);
//   - P.journal — the append-only journal receiving every decision
//     computed since the last compaction.
//
// Each frame's payload is one decision as JSON:
// {"fp":<16 hex digits>,"prop":"discerning"|"recording","n":<level>,
// "ok":<verdict>,"w":<witness, positive decisions only>}. The load keeps
// every frame up to the first bad one; a frame that passes its CRC but
// does not decode to a consistent decision (a positive verdict needs a
// witness of the right kind and level) also ends the good prefix. The
// journal is truncated back to its good prefix before appends resume.
// Files of another format version, including the line-oriented JSON
// files of version 1, are refused at Open and left untouched.
//
// # Concurrency and ownership
//
// Writes are asynchronous: the cache's sink hands newly computed
// decisions to a flusher goroutine owning the journal file, so deciders
// never block on disk. Close drains and syncs the journal; Flush and
// Compact are available mid-run. One store at a time may own a path (the
// -cache-file contract of the cmd tools): Open takes an exclusive,
// non-blocking flock on the journal and holds it until Close, so a
// second Open of the same path, from any process, fails with an error
// naming the path. The kernel drops the lock when its process dies, so a
// killed writer leaves no stale lock. (On platforms without flock the
// rule is not enforced.) Within the owning process a *Store is safe for
// concurrent use.
//
// # Byte-stability guarantees
//
// Snapshot bytes are deterministic for a given set of decisions (entries
// are sorted before writing), and the witness JSON codecs round-trip
// byte-identically, so two stores holding the same decisions compact to
// identical snapshot files.
package store
