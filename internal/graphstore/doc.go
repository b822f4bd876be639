// Package graphstore persists expanded exploration graphs
// (internal/model.Graph) across process restarts, so a restarted reprod
// serves warm /v1/check traffic without re-expanding state spaces it
// already paid for.
//
// # Layout and identity
//
// A store owns one directory. Each (structural fingerprint, input
// vector) key — the same key engine.GraphCache uses — maps to one file,
// an internal/framelog log with magic "RPRGRAPH" and version 2.
// framelog's doc is the one description of the header, the frame layout
// and the crash-safety contracts; this package defines only the frame
// payloads:
//
//   - The first frame is the key header: procs and objects as uint32,
//     then the fingerprint and the input vector, each behind a uint16
//     count. A file whose header names another key is refused.
//   - Every later frame is a page: the local-state dictionary entries
//     the page introduces, then a batch of fixed-width node records
//     (position, 128-bit node fingerprint, dictionary-indexed
//     configuration, packed output-history/decision vectors, the Done
//     bit, successor indices).
//
// Node records refer to other nodes by intern-order position, and pages
// only ever append nodes or complete previously-unexpanded ones, so the
// file is a monotone log of model.GraphSnapshot growth.
//
// # Crash safety
//
// Load keeps framelog's good prefix. Pages apply all-or-nothing: a page
// that passes its CRC but is structurally inconsistent (an unknown
// dictionary index, a record position past the end) also ends the good
// prefix, so no successor reference can dangle. The next spill
// truncates the file to that good prefix before appending. A file with
// an alien magic or another format version, including version 1 files,
// is refused outright — never truncated or overwritten — and that key
// is served from memory. A read error is an error too, never a shorter
// prefix. Records that pass the frame checksums are verified once more
// on import (model.Graph.ImportSnapshot recomputes each node
// fingerprint), so a corrupted file degrades to a partial warm load or
// a clean re-expansion, never a wrong graph.
//
// # Concurrency and ownership
//
// A Store serializes all file access behind one mutex; Load and Spill
// may be called from any goroutine. The intended owner is
// engine.GraphCache, which loads on cache miss and spills snapshot
// deltas asynchronously after walks complete — walks never block on the
// disk. The store assumes it is the directory's only writer.
package graphstore
