package graphstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/framelog"
	"repro/internal/model"
)

// Magic opens every graph-store file; Version is the only file-format
// version this build reads and writes. A file of any other version is
// refused for its key, never truncated or migrated.
const (
	Magic   = "RPRGRAPH"
	Version = 2
)

var format = framelog.Format{Magic: Magic, Version: Version}

const (
	// pageMaxRecords bounds the node records of one page; a spill larger
	// than this splits into several pages, each its own frame.
	pageMaxRecords = 4096
	// succNone encodes an absent successor reference (-1).
	succNone = ^uint32(0)
)

var (
	// errBadPage rejects a frame that does not decode as a page.
	errBadPage = errors.New("graphstore: malformed page")
	// errForeignKey refuses a file whose header frame is not its key's.
	errForeignKey = errors.New("header names another key (refusing to overwrite; move the file aside to start fresh)")
)

// Store is an open graph-store directory. It is safe for concurrent
// use; all file access is serialized internally. Construct with Open;
// the zero value is not usable.
type Store struct {
	dir string

	mu    sync.Mutex
	files map[string]*fileState
}

// fileState tracks the durable good prefix of one key's file, the
// bookkeeping delta spills extend from.
type fileState struct {
	// nodes and dict count the node records and dictionary entries of the
	// good prefix; goodLen is its byte length.
	nodes   int
	dict    int
	goodLen int64
	// unexpanded holds the persisted indices whose records are not Done
	// yet; a spill completes them with in-place update records.
	unexpanded map[int]struct{}
	// fps mirrors the persisted nodes' 128-bit fingerprints, the prefix-
	// compatibility check for spills of graphs this process never loaded.
	fps []nodeID
	// bad marks a key whose file hit a write error or an incompatible
	// in-memory graph; further spills are skipped until the next Open.
	bad bool
}

type nodeID struct{ hi, lo uint64 }

// Open opens (creating if absent) the graph store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("graphstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, files: make(map[string]*fileState)}, nil
}

// Dir returns the directory the store was opened with.
func (s *Store) Dir() string { return s.dir }

// fileName maps a (fingerprint, inputs) key to its file. The
// fingerprint is already a 64-char hex string; inputs join with '_'
// after a "-in" separator, so distinct keys cannot collide.
func fileName(fp string, inputs []int) string {
	parts := make([]string, len(inputs))
	for i, in := range inputs {
		parts[i] = strconv.Itoa(in)
	}
	return fp + "-in" + strings.Join(parts, "_") + ".graph"
}

func (s *Store) path(fp string, inputs []int) string {
	return filepath.Join(s.dir, fileName(fp, inputs))
}

// Load reads the good prefix of the key's file as a snapshot. A missing
// file is a miss: (nil, nil). A file with an alien header, another
// format version or another key's header is an error, as is a read
// failure, and the key is marked bad so spills never touch the file. A
// corrupted tail silently shortens the snapshot — the caller imports
// whatever loaded and re-expands the rest.
func (s *Store) Load(fp string, inputs []int) (*model.GraphSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, st, err := s.load(fp, inputs)
	if err != nil {
		s.files[fileName(fp, inputs)] = &fileState{bad: true}
		return nil, err
	}
	s.files[fileName(fp, inputs)] = st
	return snap, nil
}

// load reads the file without touching the state map; callers hold
// s.mu. A missing file returns (nil, zero-state, nil). The first frame is
// the header: procs and objects as uint32, then the key (keyBytes).
// Every later frame is a page.
func (s *Store) load(fp string, inputs []int) (*model.GraphSnapshot, *fileState, error) {
	path := s.path(fp, inputs)
	st := &fileState{unexpanded: make(map[int]struct{})}
	key := keyBytes(fp, inputs)
	var snap *model.GraphSnapshot
	foreign := false
	good, err := framelog.ScanFile(path, format, func(frame []byte) error {
		if snap == nil {
			if foreign = len(frame) < 8 || !bytes.Equal(frame[8:], key); foreign {
				return errForeignKey
			}
			snap = &model.GraphSnapshot{
				Procs:   int(binary.LittleEndian.Uint32(frame[0:4])),
				Objects: int(binary.LittleEndian.Uint32(frame[4:8])),
				Inputs:  append([]int(nil), inputs...),
			}
		} else if !applyPage(snap, st, frame) {
			return errBadPage
		}
		return nil
	})
	if err == nil && foreign {
		err = fmt.Errorf("%s: %w", path, errForeignKey)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("graphstore: %w", err)
	}
	st.goodLen = good
	if snap == nil || len(snap.Nodes) == 0 {
		// No header frame survived (the next spill writes one), or a bare
		// header carries no nodes: load it as a miss so the caller expands
		// cold, keeping the good prefix so the next spill appends after it.
		return nil, st, nil
	}
	return snap, st, nil
}

// keyBytes renders a key as the header frame names it: the fingerprint
// and the input vector, each behind a uint16 count.
func keyBytes(fp string, inputs []int) []byte {
	out := binary.LittleEndian.AppendUint16(nil, uint16(len(fp)))
	out = append(out, fp...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(inputs)))
	for _, in := range inputs {
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(in)))
	}
	return out
}

// recordSize is the fixed width of one node record for the dimensions.
func recordSize(procs, objects int) int {
	return 4 + 16 + 4*procs + 4*objects + procs + procs + 1 + 4*procs + 4*procs
}

// applyPage parses one checksummed payload and applies it to the
// snapshot under construction. It is all-or-nothing: on any structural
// inconsistency it applies nothing and returns false, ending the scan
// at the previous page — so a loaded snapshot never holds a dangling
// successor reference from a half-applied batch.
func applyPage(snap *model.GraphSnapshot, st *fileState, page []byte) bool {
	procs, objects := snap.Procs, snap.Objects
	if len(page) < 4 {
		return false
	}
	nDict := int(binary.LittleEndian.Uint32(page[0:4]))
	page = page[4:]
	var newStates []string
	for i := 0; i < nDict; i++ {
		if len(page) < 2 {
			return false
		}
		slen := int(binary.LittleEndian.Uint16(page[0:2]))
		page = page[2:]
		if len(page) < slen {
			return false
		}
		newStates = append(newStates, string(page[:slen]))
		page = page[slen:]
	}
	if len(page) < 4 {
		return false
	}
	nRec := int(binary.LittleEndian.Uint32(page[0:4]))
	page = page[4:]
	rs := recordSize(procs, objects)
	if len(page) != nRec*rs {
		return false
	}

	type parsed struct {
		idx int
		nd  model.SnapshotNode
	}
	recs := make([]parsed, 0, nRec)
	dictLen := len(snap.States) + len(newStates)
	nodes := len(snap.Nodes)
	for r := 0; r < nRec; r++ {
		b := page[r*rs : (r+1)*rs]
		idx := int(binary.LittleEndian.Uint32(b[0:4]))
		if idx > nodes {
			return false
		}
		if idx == nodes {
			nodes++
		}
		nd := model.SnapshotNode{
			FPHi:      binary.LittleEndian.Uint64(b[4:12]),
			FPLo:      binary.LittleEndian.Uint64(b[12:20]),
			States:    make([]uint32, procs),
			Vals:      make([]int32, objects),
			Outs:      make([]int8, procs),
			Decided:   make([]int8, procs),
			StepSucc:  make([]int32, procs),
			CrashSucc: make([]int32, procs),
		}
		o := 20
		for p := 0; p < procs; p++ {
			sid := binary.LittleEndian.Uint32(b[o:])
			if int(sid) >= dictLen {
				return false
			}
			nd.States[p] = sid
			o += 4
		}
		for j := 0; j < objects; j++ {
			nd.Vals[j] = int32(binary.LittleEndian.Uint32(b[o:]))
			o += 4
		}
		for p := 0; p < procs; p++ {
			nd.Outs[p] = int8(b[o])
			o++
		}
		for p := 0; p < procs; p++ {
			nd.Decided[p] = int8(b[o])
			o++
		}
		nd.Done = b[o] != 0
		o++
		for _, succ := range [2][]int32{nd.StepSucc, nd.CrashSucc} {
			for p := range succ {
				// succNone reads back as -1; any other index must fit int32.
				v := binary.LittleEndian.Uint32(b[o:])
				if v >= 1<<31 && v != succNone {
					return false
				}
				succ[p] = int32(v)
				o += 4
			}
		}
		recs = append(recs, parsed{idx: idx, nd: nd})
	}

	// Whole page parsed: apply.
	snap.States = append(snap.States, newStates...)
	st.dict = len(snap.States)
	for _, r := range recs {
		id := nodeID{r.nd.FPHi, r.nd.FPLo}
		if r.idx == len(snap.Nodes) {
			snap.Nodes = append(snap.Nodes, r.nd)
			st.fps = append(st.fps, id)
		} else {
			snap.Nodes[r.idx] = r.nd
			st.fps[r.idx] = id
		}
		if r.nd.Done {
			delete(st.unexpanded, r.idx)
		} else {
			st.unexpanded[r.idx] = struct{}{}
		}
	}
	st.nodes = len(snap.Nodes)
	return true
}

// encodeRecord appends one node record for position idx.
func encodeRecord(dst []byte, idx int, nd *model.SnapshotNode) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(idx))
	dst = binary.LittleEndian.AppendUint64(dst, nd.FPHi)
	dst = binary.LittleEndian.AppendUint64(dst, nd.FPLo)
	for _, sid := range nd.States {
		dst = binary.LittleEndian.AppendUint32(dst, sid)
	}
	for _, v := range nd.Vals {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	for _, o := range nd.Outs {
		dst = append(dst, byte(o))
	}
	for _, d := range nd.Decided {
		dst = append(dst, byte(d))
	}
	if nd.Done {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	for _, succ := range [2][]int32{nd.StepSucc, nd.CrashSucc} {
		for _, si := range succ {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(si)) // -1 is succNone
		}
	}
	return dst
}

// Spill persists the snapshot's growth beyond the key's durable prefix:
// new dictionary entries, update records completing previously
// unexpanded nodes, and append records for new nodes, batched into
// CRC'd pages and fsynced. It returns the number of node records
// written (0 when the file is already current, the key is marked bad,
// or the snapshot is not an extension of the persisted prefix). A write
// error marks the key bad — later spills skip it — and is returned.
func (s *Store) Spill(fp string, inputs []int, snap *model.GraphSnapshot) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := fileName(fp, inputs)
	st, ok := s.files[key]
	if !ok {
		// First touch of this key in this process: establish the durable
		// prefix from the file (usually a miss; the file may exist if an
		// earlier process wrote it and this one expanded cold).
		_, fresh, err := s.load(fp, inputs)
		if err != nil {
			s.files[key] = &fileState{bad: true}
			return 0, err
		}
		st = fresh
		s.files[key] = st
	}
	if st.bad {
		return 0, nil
	}
	// The snapshot must extend the persisted prefix node for node. A
	// shorter snapshot (a concurrent export raced a longer spill) or a
	// fingerprint mismatch (the in-memory graph grew in a different
	// order, e.g. it never warm-loaded this file) is a safe no-op /
	// permanent skip respectively.
	if len(snap.Nodes) < st.nodes || len(snap.States) < st.dict {
		return 0, nil
	}
	for i, id := range st.fps {
		if snap.Nodes[i].FPHi != id.hi || snap.Nodes[i].FPLo != id.lo {
			st.bad = true
			return 0, nil
		}
	}

	var updates []int
	for idx := range st.unexpanded {
		if snap.Nodes[idx].Done {
			updates = append(updates, idx)
		}
	}
	newDict := snap.States[st.dict:]
	appends := len(snap.Nodes) - st.nodes
	if len(updates) == 0 && appends == 0 && len(newDict) == 0 {
		return 0, nil
	}

	written, err := s.write(fp, inputs, snap, st, updates, newDict)
	if err != nil {
		st.bad = true
		return 0, err
	}
	// Commit the new durable prefix.
	for _, idx := range updates {
		delete(st.unexpanded, idx)
	}
	for i := st.nodes; i < len(snap.Nodes); i++ {
		st.fps = append(st.fps, nodeID{snap.Nodes[i].FPHi, snap.Nodes[i].FPLo})
		if !snap.Nodes[i].Done {
			st.unexpanded[i] = struct{}{}
		}
	}
	st.nodes = len(snap.Nodes)
	st.dict = len(snap.States)
	return written, nil
}

// write performs the file I/O of one spill: an appender cut back to the
// good prefix, the header frame if none is durable, the delta pages, an
// fsync, and the new goodLen.
func (s *Store) write(fp string, inputs []int, snap *model.GraphSnapshot, st *fileState, updates []int, newDict []string) (int, error) {
	a, err := framelog.OpenAppender(s.path(fp, inputs), format, st.goodLen)
	if err != nil {
		return 0, err
	}
	if st.goodLen <= framelog.HeaderSize { // no header frame is durable yet
		hdr := binary.LittleEndian.AppendUint32(nil, uint32(snap.Procs))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(snap.Objects))
		err = a.Append(append(hdr, keyBytes(fp, inputs)...))
	}

	// One record stream: updates first (they complete nodes already on
	// disk), then the new tail. The dictionary delta rides in the first
	// page; it must, because records in that page may reference it.
	stream := make([]int, 0, len(updates)+len(snap.Nodes)-st.nodes)
	stream = append(stream, updates...)
	for i := st.nodes; i < len(snap.Nodes); i++ {
		stream = append(stream, i)
	}
	var payload []byte
	for start := 0; err == nil && (start < len(stream) || start == 0); start += pageMaxRecords {
		end := min(start+pageMaxRecords, len(stream))
		dict := newDict
		if start > 0 {
			dict = nil
		}
		payload = binary.LittleEndian.AppendUint32(payload[:0], uint32(len(dict)))
		for _, str := range dict {
			payload = binary.LittleEndian.AppendUint16(payload, uint16(len(str)))
			payload = append(payload, str...)
		}
		payload = binary.LittleEndian.AppendUint32(payload, uint32(end-start))
		for _, idx := range stream[start:end] {
			payload = encodeRecord(payload, idx, &snap.Nodes[idx])
		}
		err = a.Append(payload)
	}
	if cerr := a.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	st.goodLen = a.Size()
	return len(stream), nil
}
