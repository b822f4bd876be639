package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/framelog"
	"repro/internal/spec"
	"repro/internal/types"
)

// zoo is the type population the tests analyze: cheap at maxN 4, and
// mixing positive and negative decisions, discerning and recording
// witnesses, readable and non-readable types.
func zoo() []*spec.FiniteType {
	return []*spec.FiniteType{
		types.TestAndSet(),
		types.Tnn(3, 1),
		types.TnnReadable(3),
		types.Register(2),
	}
}

// analyzeInto runs the zoo through an engine backed by st's cache and
// returns the marshaled witnesses of every analysis, keyed by type name
// and level, for byte-identity comparison.
func analyzeInto(t *testing.T, st *Store, maxN int) map[string][]byte {
	t.Helper()
	eng := engine.New(engine.WithCache(st.Cache()), engine.WithParallelism(2), engine.WithMaxN(maxN))
	out := map[string][]byte{}
	as, err := eng.AnalyzeAll(zoo())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range as {
		for n := 2; n <= maxN; n++ {
			if w := a.DiscerningWitness[n]; w != nil {
				b, err := json.Marshal(w)
				if err != nil {
					t.Fatal(err)
				}
				out[a.Type.Name()+"/discerning/"+string(rune('0'+n))] = b
			}
			if w := a.RecordingWitness[n]; w != nil {
				b, err := json.Marshal(w)
				if err != nil {
					t.Fatal(err)
				}
				out[a.Type.Name()+"/recording/"+string(rune('0'+n))] = b
			}
		}
	}
	return out
}

// TestRoundTripWarmStart is the core persistence property for levels
// n=2..4: run 1 computes and persists decisions; run 2 against the same
// path warm-loads them, recomputes nothing (zero misses), and serves
// byte-identical witnesses.
func TestRoundTripWarmStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")

	st1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	w1 := analyzeInto(t, st1, 4)
	_, misses1, entries1 := st1.Cache().Stats()
	if misses1 == 0 || entries1 == 0 {
		t.Fatalf("cold run computed nothing: misses=%d entries=%d", misses1, entries1)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Loaded; got != entries1 {
		t.Fatalf("warm-loaded %d decisions, want %d", got, entries1)
	}
	w2 := analyzeInto(t, st2, 4)
	hits, misses, _ := st2.Cache().Stats()
	if misses != 0 {
		t.Errorf("warm run recomputed %d decisions (hits=%d)", misses, hits)
	}
	if len(w1) != len(w2) {
		t.Fatalf("witness sets differ in size: %d vs %d", len(w1), len(w2))
	}
	for k, b1 := range w1 {
		if !bytes.Equal(b1, w2[k]) {
			t.Errorf("witness %s not byte-identical:\n run1 %s\n run2 %s", k, b1, w2[k])
		}
	}
}

// TestEntryCodecRoundTrip checks that every persisted decision of the
// n=2..4 sweep re-encodes byte-identically after a decode — the
// stability the append-only journal format depends on.
func TestEntryCodecRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	analyzeInto(t, st, 4)

	count := 0
	st.Cache().Range(func(e engine.Entry) bool {
		count++
		b1, err := encodeEntry(e)
		if err != nil {
			t.Fatalf("encode %+v: %v", e, err)
		}
		dec, err := decodeEntry(b1)
		if err != nil {
			t.Fatalf("decode %s: %v", b1, err)
		}
		b2, err := encodeEntry(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("entry not byte-stable:\n first  %s\n second %s", b1, b2)
		}
		return true
	})
	if count == 0 {
		t.Fatal("no entries to round-trip")
	}
}

// TestCorruptedJournalTruncates writes decisions, corrupts the journal
// tail, and checks that Open keeps the good prefix, physically truncates
// the file, and appends cleanly afterwards.
func TestCorruptedJournalTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	analyzeInto(t, st, 3)
	_, _, entries := st.Cache().Stats()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	jpath := path + journalSuffix
	good, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// A torn final record: the first frame's length, CRC and part of its
	// payload, with the rest never written.
	torn := append(append([]byte{}, good...), good[framelog.HeaderSize:framelog.HeaderSize+20]...)
	if err := os.WriteFile(jpath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().Loaded; got != entries {
		t.Fatalf("loaded %d decisions from torn journal, want %d", got, entries)
	}
	if fi, err := os.Stat(jpath); err != nil || fi.Size() != int64(len(good)) {
		t.Fatalf("journal not truncated to good prefix: size %d, want %d (err %v)",
			fiSize(fi), len(good), err)
	}
	// Appends after the truncation must land on a clean frame boundary.
	analyzeInto(t, st2, 4)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := st3.Stats().Loaded; got <= entries {
		t.Fatalf("post-truncation appends lost: loaded %d, want > %d", got, entries)
	}
}

// frameOffsets returns the offset of every frame of a well-formed log.
func frameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	for o := framelog.HeaderSize; o < len(data); o += 8 + int(binary.LittleEndian.Uint32(data[o:])) {
		offs = append(offs, o)
	}
	return offs
}

func fiSize(fi os.FileInfo) int64 {
	if fi == nil {
		return -1
	}
	return fi.Size()
}

// TestCorruptedMidRecordDropsTail flips a byte inside a middle record:
// the load must keep everything before it and drop it and the rest.
func TestCorruptedMidRecordDropsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	analyzeInto(t, st, 3)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	jpath := path + journalSuffix
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, data)
	if len(offs) < 3 {
		t.Fatalf("need >= 3 records, have %d", len(offs))
	}
	victim := len(offs) / 2
	// Flip a byte inside the CRC-protected payload of the victim frame.
	data[offs[victim]+8+4] ^= 0x01
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, want := st2.Stats().Loaded, victim; got != want {
		t.Fatalf("loaded %d decisions after mid-file corruption, want %d", got, want)
	}
}

// TestCompact folds the journal into the snapshot: the journal resets to
// a bare header, the snapshot carries every decision, and a reopen
// warm-loads the full set. Compacting twice is stable, and the snapshot
// bytes are deterministic.
func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	analyzeInto(t, st, 4)
	_, _, entries := st.Cache().Stats()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	snap1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	snap2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Error("snapshot bytes not deterministic across compactions")
	}
	jfi, err := os.Stat(path + journalSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if jfi.Size() != framelog.HeaderSize {
		t.Errorf("journal size after compact = %d, want bare header %d", jfi.Size(), framelog.HeaderSize)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Loaded; got != entries {
		t.Fatalf("reopen after compact loaded %d, want %d", got, entries)
	}
}

// TestNewerVersionRefused ensures a file from a future format version,
// or a line-oriented JSON file of version 1, is an error that leaves the
// file byte-identical, not a silent truncation.
func TestNewerVersionRefused(t *testing.T) {
	newer := framelog.Format{Magic: Magic, Version: Version + 1}.Header()
	v1 := []byte(`{"format":"repro-decision-store","version":1}` + "\n" +
		`{"e":{"fp":"0000000000000001","prop":"discerning","n":2,"ok":false},"c":1}` + "\n")
	for _, data := range [][]byte{newer, v1} {
		for _, suffix := range []string{"", journalSuffix} {
			path := filepath.Join(t.TempDir(), "decisions")
			if err := os.WriteFile(path+suffix, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(path); err == nil {
				t.Fatalf("Open accepted %q at %q", data, suffix)
			} else if !strings.Contains(err.Error(), path+suffix) {
				t.Errorf("refusal does not name the file: %v", err)
			}
			if got, err := os.ReadFile(path + suffix); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("refused file was modified: %q (err %v)", got, err)
			}
		}
	}
}

// TestAlienFileRefused ensures a non-empty file without the store header
// — a stray file at the path, or a corrupted header over real records —
// is refused intact, never truncated to zero.
func TestAlienFileRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	jpath := path + journalSuffix
	stray := []byte("this is somebody else's file\nwith two lines\n")
	if err := os.WriteFile(jpath, stray, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a journal with an alien header")
	}
	got, err := os.ReadFile(jpath)
	if err != nil || !bytes.Equal(got, stray) {
		t.Fatalf("refused file was modified: %q (err %v)", got, err)
	}
	// A torn header (only a prefix of the magic made it to disk) is the
	// one header failure that IS a clean crash artifact: Open starts
	// fresh.
	if err := os.WriteFile(jpath, []byte(Magic[:5]), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatalf("torn header must open fresh: %v", err)
	}
	st.Close()
}

// TestSecondOpenLocked pins the single-writer rule: while a store is
// open, a second Open of its path fails with an error naming the
// journal, and succeeds once the first store is closed.
func TestSecondOpenLocked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2, err := Open(path); err == nil {
		st2.Close()
		t.Fatal("second Open of an open store succeeded")
	} else if !strings.Contains(err.Error(), path+journalSuffix) {
		t.Errorf("lock error does not name the journal: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushMakesAppendsDurable checks Flush pushes queued appends to the
// file without closing the store.
func TestFlushMakesAppendsDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	analyzeInto(t, st, 3)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	_, _, entries := st.Cache().Stats()
	got := 0
	if _, err := framelog.ScanFile(path+journalSuffix, format, func([]byte) error {
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != entries {
		t.Fatalf("journal holds %d decisions after Flush, want %d", got, entries)
	}
}
