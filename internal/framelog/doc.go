// Package framelog owns the on-disk format of the repository's
// crash-safe logs: the decision store's snapshot and journal
// (internal/store) and the graph store's per-key files
// (internal/graphstore) are all framelogs. The callers decide what a
// payload means; this package decides how payloads reach the disk and
// what survives a crash.
//
// # Layout
//
// A file opens with a 12-byte header, the 8-byte magic of its Format
// followed by the format version as a little-endian uint32. Frames
// follow, back to back:
//
//	len    uint32   payload length, little-endian, 1..MaxPayload
//	crc    uint32   CRC-32C (Castagnoli) of the payload, little-endian
//	payload [len]byte
//
// There is no trailer and no index: a file is exactly the header plus
// the frames written so far.
//
// # Crash-safety contracts
//
//   - Scan returns the good prefix. It hands every intact frame's payload
//     to the caller's decoder, in order, and stops at the first frame
//     that is torn (the file ends inside it), empty, larger than
//     MaxPayload, or fails its CRC, or that the decoder rejects. The
//     byte length of everything before that frame is the good prefix;
//     whatever follows it is a crash artifact or corruption.
//   - An empty file, or one holding only a prefix of the header (a crash
//     while the header was being written), is a log with no frames and a
//     good prefix of 0.
//   - A file whose header carries another magic, or another version than
//     the Format's, is refused with ErrForeign or ErrVersion. Nothing in
//     this package writes to a refused file: it may hold another
//     program's data or another build's log, and destroying it is worse
//     than asking the operator to move it aside. Old versions are not
//     migrated.
//   - Any read error other than end-of-file aborts the scan with that
//     error. A transient I/O failure must never shorten the good prefix,
//     because the next appender would truncate durable frames away.
//   - OpenAppender cuts the file back to the good prefix before it
//     appends, so new frames start on a frame boundary, and writes the
//     header when the file has none. Appends are buffered; Commit pushes
//     them to the disk with an fsync, and the first Commit after a header
//     was written also fsyncs the directory so the file's entry survives
//     a crash.
//   - WriteFile replaces a whole log atomically: it writes a temporary
//     file in the same directory, fsyncs it, renames it over the target
//     and fsyncs the directory. A crash leaves either the old file or the
//     new one.
//
// # Concurrency and ownership
//
// Scan and WriteFile are safe to call from any goroutine. An Appender
// is not safe for concurrent use; one goroutine owns it. The package
// assumes one writer per file and does no locking: the decision store
// takes a file lock on its journal, the graph store serializes its
// writes behind a mutex.
//
// # Byte-stability guarantees
//
// The bytes written are a pure function of the Format and the payloads
// appended, so identical payload sequences produce identical files.
package framelog
