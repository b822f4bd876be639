package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"

	"repro/internal/discern"
	"repro/internal/engine"
	"repro/internal/framelog"
	"repro/internal/record"
)

// Magic opens every decision-store file; Version is the only file-format
// version this build reads and writes. A file of any other version is
// refused at Open, never truncated or migrated.
const (
	Magic   = "RPRDECSN"
	Version = 2
)

var format = framelog.Format{Magic: Magic, Version: Version}

// journalSuffix names the journal file beside the snapshot path.
const journalSuffix = ".journal"

// entryJSON is the serialized decision. The fingerprint is hex-encoded:
// JSON numbers cannot carry 64 bits exactly.
type entryJSON struct {
	FP   string          `json:"fp"`
	Prop string          `json:"prop"`
	N    int             `json:"n"`
	OK   bool            `json:"ok"`
	W    json.RawMessage `json:"w,omitempty"`
}

// encodeEntry renders e as one frame payload.
func encodeEntry(e engine.Entry) ([]byte, error) {
	ej := entryJSON{FP: fmt.Sprintf("%016x", e.FP), Prop: string(e.Prop), N: e.N, OK: e.OK}
	var w any
	switch {
	case e.DiscernWitness != nil:
		w = e.DiscernWitness
	case e.RecordWitness != nil:
		w = e.RecordWitness
	}
	if w != nil {
		wb, err := json.Marshal(w)
		if err != nil {
			return nil, err
		}
		ej.W = wb
	}
	return json.Marshal(ej)
}

// decodeEntry parses one frame payload, verifying the decision's internal
// consistency (a positive decision must carry a witness of the right
// kind and level).
func decodeEntry(payload []byte) (engine.Entry, error) {
	var ej entryJSON
	if err := json.Unmarshal(payload, &ej); err != nil {
		return engine.Entry{}, err
	}
	fp, err := strconv.ParseUint(ej.FP, 16, 64)
	if err != nil {
		return engine.Entry{}, fmt.Errorf("store: bad fingerprint %q: %w", ej.FP, err)
	}
	e := engine.Entry{FP: fp, Prop: engine.Property(ej.Prop), N: ej.N, OK: ej.OK}
	if e.N < 2 {
		return engine.Entry{}, fmt.Errorf("store: bad level n=%d", e.N)
	}
	wn := e.N // the witness's level; a negative decision carries none
	switch {
	case e.Prop != engine.Discerning && e.Prop != engine.Recording:
		return engine.Entry{}, fmt.Errorf("store: unknown property %q", ej.Prop)
	case !e.OK:
	case e.Prop == engine.Discerning:
		e.DiscernWitness = &discern.Witness{}
		err = json.Unmarshal(ej.W, e.DiscernWitness)
		wn = e.DiscernWitness.N
	default:
		e.RecordWitness = &record.Witness{}
		err = json.Unmarshal(ej.W, e.RecordWitness)
		wn = e.RecordWitness.N
	}
	if err != nil {
		return engine.Entry{}, err
	}
	if wn != e.N {
		return engine.Entry{}, fmt.Errorf("store: witness level %d does not match entry level %d", wn, e.N)
	}
	return e, nil
}

// request kinds served by the flusher goroutine.
const (
	reqFlush = iota
	reqCompact
)

type request struct {
	kind int
	err  chan error
}

// Store is an open persistent decision store. It is safe for concurrent
// use. Construct with Open; the zero value is not usable.
type Store struct {
	path  string // snapshot file
	jpath string // journal file
	cache *engine.Cache

	queue chan engine.Entry
	reqs  chan request
	done  chan struct{} // closed when the flusher has exited

	// lifeMu guards closed. Sink sends and flusher requests hold it for
	// reading across their whole channel interaction, so Close (which
	// takes it for writing) cannot tear the channels down under them.
	lifeMu sync.RWMutex
	closed bool

	mu       sync.Mutex // guards the mutable fields below
	loaded   int
	appended int
	err      error // first journal I/O error, sticky

	// Owned by the flusher goroutine after Open returns.
	journal *framelog.Appender
	// unlock releases the journal's single-writer lock; Close calls it.
	unlock func()
}

// Open opens (creating if absent) the decision store at path and
// warm-loads every previously persisted decision into a fresh cache,
// reachable via Cache. Corrupted tails of the snapshot or journal are
// skipped, and the journal is physically truncated to its last good
// record so appends resume cleanly. The returned store appends every
// decision the cache computes from now on, asynchronously, until Close.
// The store holds an exclusive lock on its journal until Close: a second
// Open of the same path, from this process or another, fails.
func Open(path string) (*Store, error) {
	if path == "" {
		return nil, errors.New("store: empty path")
	}
	s := &Store{
		path:  path,
		jpath: path + journalSuffix,
		cache: engine.NewCache(),
		queue: make(chan engine.Entry, 256),
		reqs:  make(chan request),
		done:  make(chan struct{}),
	}
	unlock, err := lockJournal(s.jpath)
	if err != nil {
		return nil, err
	}
	insert := func(payload []byte) error {
		e, err := decodeEntry(payload)
		if err == nil {
			s.cache.Insert(e)
		}
		return err
	}
	// Journal entries overwrite snapshot entries: they are newer (and,
	// the deciders being deterministic, identical for identical keys).
	_, err = framelog.ScanFile(s.path, format, insert)
	var good int64
	if err == nil {
		good, err = framelog.ScanFile(s.jpath, format, insert)
	}
	if err == nil {
		s.journal, err = framelog.OpenAppender(s.jpath, format, good)
	}
	if err != nil {
		unlock()
		return nil, fmt.Errorf("store: %w", err)
	}
	s.unlock = unlock
	// Count distinct decisions, not records: after a crash between
	// compact's snapshot rename and its journal reset, journal records
	// duplicate snapshot ones and collapse on Insert.
	_, _, s.loaded = s.cache.Stats()

	s.cache.SetSink(s.enqueue)
	go s.flusher()
	return s, nil
}

// Cache returns the warm-loaded decision cache backed by this store.
// Install it on engines with engine.WithCache (repro.WithCache); every
// decision they compute is persisted automatically.
func (s *Store) Cache() *engine.Cache { return s.cache }

// Path returns the snapshot path the store was opened with.
func (s *Store) Path() string { return s.path }

// enqueue is the cache sink: it hands one newly computed decision to the
// flusher. It blocks only while the flusher is behind by a full queue.
func (s *Store) enqueue(e engine.Entry) {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if s.closed {
		return
	}
	s.queue <- e
}

// setErr records the first journal I/O error.
func (s *Store) setErr(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Err returns the store's sticky journal I/O error, if any. Appends are
// best-effort after the first error; Close and Flush also report it.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// flusher owns the journal file: it drains the append queue and serves
// Flush/Compact requests until Close shuts the queue, then syncs and
// closes the file. Whenever the queue goes idle it pushes the write
// buffer to the OS, so a killed process (OOM, SIGKILL) loses at most
// the appends of one busy burst — only an OS crash can lose an idle
// tail, and Flush/Close close even that window with an fsync.
func (s *Store) flusher() {
	defer close(s.done)
	for {
		var (
			e      engine.Entry
			ok     bool
			req    request
			gotReq bool
		)
		select {
		case e, ok = <-s.queue:
		case req = <-s.reqs:
			gotReq = true
		default:
			// Queue idle: make the buffered appends visible to the OS
			// before blocking.
			s.setErr(s.journal.Flush())
			select {
			case e, ok = <-s.queue:
			case req = <-s.reqs:
				gotReq = true
			}
		}
		if gotReq {
		drain:
			// Cover everything enqueued before the request.
			for {
				select {
				case e, ok := <-s.queue:
					if !ok {
						break drain
					}
					s.append(e)
				default:
					break drain
				}
			}
			switch req.kind {
			case reqFlush:
				req.err <- s.sync()
			case reqCompact:
				req.err <- s.compact()
			}
			continue
		}
		if !ok {
			s.setErr(s.journal.Close())
			s.unlock()
			return
		}
		s.append(e)
	}
}

// append journals one decision (buffered; errors are sticky).
func (s *Store) append(e engine.Entry) {
	payload, err := encodeEntry(e)
	if err == nil {
		err = s.journal.Append(payload)
	}
	if err != nil {
		s.setErr(err)
		return
	}
	s.mu.Lock()
	s.appended++
	s.mu.Unlock()
}

// sync pushes the write buffer to the OS and the OS cache to disk, and
// returns the store's sticky error.
func (s *Store) sync() error {
	s.setErr(s.journal.Commit())
	return s.Err()
}

// compact rewrites the snapshot with the cache's current contents and
// resets the journal. Runs on the flusher goroutine. Crash-safety: the
// snapshot replacement is atomic (framelog.WriteFile), and the journal
// is only reset afterwards — a crash between the two leaves journal
// entries that duplicate snapshot entries, which the next Open absorbs
// (Insert overwrites).
func (s *Store) compact() error {
	if err := s.sync(); err != nil {
		return err
	}
	var entries []engine.Entry
	s.cache.Range(func(e engine.Entry) bool {
		entries = append(entries, e)
		return true
	})
	// Deterministic snapshots: identical caches produce identical bytes.
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.FP != b.FP {
			return a.FP < b.FP
		}
		if a.Prop != b.Prop {
			return a.Prop < b.Prop
		}
		return a.N < b.N
	})
	payloads := make([][]byte, len(entries))
	for i, e := range entries {
		var err error
		if payloads[i], err = encodeEntry(e); err != nil {
			return err
		}
	}
	if err := framelog.WriteFile(s.path, format, payloads); err != nil {
		return err
	}
	// Reset the journal to a bare header; appends continue after it.
	s.setErr(s.journal.Reset())
	return s.Err()
}

// request round-trips one control request to the flusher.
func (s *Store) do(kind int) error {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if s.closed {
		return errors.New("store: closed")
	}
	req := request{kind: kind, err: make(chan error, 1)}
	s.reqs <- req
	return <-req.err
}

// Flush drains pending appends and syncs the journal to disk.
func (s *Store) Flush() error { return s.do(reqFlush) }

// Compact folds the journal (and any prior snapshot) into a freshly
// written snapshot — atomically, via framelog.WriteFile — and resets the
// journal to empty. Load time and disk use shrink to one record per
// distinct decision.
func (s *Store) Compact() error { return s.do(reqCompact) }

// Close stops persisting, drains and syncs the journal, closes it and
// releases its lock.
// Decisions the cache computes after Close are not persisted. Close is
// idempotent; it returns the store's sticky I/O error, if any.
func (s *Store) Close() error {
	s.lifeMu.Lock()
	if s.closed {
		s.lifeMu.Unlock()
		return s.Err()
	}
	s.closed = true
	s.lifeMu.Unlock()
	s.cache.SetSink(nil)
	close(s.queue)
	<-s.done
	return s.Err()
}

// Stats describes the store's persistence state.
type Stats struct {
	// Path is the snapshot path (the journal is Path + ".journal").
	Path string `json:"path"`
	// Loaded counts the decisions warm-loaded at Open.
	Loaded int `json:"loaded"`
	// Appended counts the decisions journaled since Open.
	Appended int `json:"appended"`
	// SnapshotBytes and JournalBytes are the current file sizes (0 when
	// the file does not exist yet).
	SnapshotBytes int64 `json:"snapshotBytes"`
	JournalBytes  int64 `json:"journalBytes"`
}

// Stats reports the store's current persistence counters and file sizes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{Path: s.path, Loaded: s.loaded, Appended: s.appended}
	s.mu.Unlock()
	if fi, err := os.Stat(s.path); err == nil {
		st.SnapshotBytes = fi.Size()
	}
	if fi, err := os.Stat(s.jpath); err == nil {
		st.JournalBytes = fi.Size()
	}
	return st
}
