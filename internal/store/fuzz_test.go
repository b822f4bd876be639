package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/framelog"
)

// loadedDecisions renders every decision in st's cache as its encoded
// frame payload, keyed by decision key, for byte-exact comparison.
func loadedDecisions(t *testing.T, st *Store) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	st.Cache().Range(func(e engine.Entry) bool {
		line, err := encodeEntry(e)
		if err != nil {
			t.Fatalf("loaded decision does not re-encode: %v", err)
		}
		out[fmt.Sprintf("%016x/%s/%d", e.FP, e.Prop, e.N)] = line
		return true
	})
	return out
}

// FuzzStoreLoad puts arbitrary bytes at the snapshot or the journal path
// of a decision store and opens it. Open must either refuse the file —
// only possible once the bytes are more than a torn prefix of the
// header, and leaving the file untouched — or load a good prefix: the
// snapshot is never rewritten,
// the journal is cut back to a prefix of the bytes (or, with no good
// prefix at all, to a fresh header), every loaded decision survives the
// record codec unchanged, and after Close a second Open loads exactly
// the same decisions. The corpus is seeded from a real journal, damaged
// copies of it, and refused headers: alien, newer, and a version-1
// line-oriented file.
func FuzzStoreLoad(f *testing.F) {
	seedPath := filepath.Join(f.TempDir(), "decisions")
	st, err := Open(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	eng := engine.New(engine.WithCache(st.Cache()), engine.WithParallelism(1), engine.WithMaxN(3))
	if _, err := eng.AnalyzeAll(zoo()); err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(seedPath + journalSuffix)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), journal...)
	flipped[len(flipped)/2] ^= 0x08
	for _, seed := range [][]byte{
		journal,
		journal[:len(journal)/2],
		journal[:len(journal)-2],
		flipped,
		framelog.Format{Magic: Magic, Version: Version + 1}.Header(),
		[]byte("not a store\n"),
		[]byte(Magic[:5]),
		{},
		[]byte(`{"format":"repro-decision-store","version":1}` + "\n"),
	} {
		f.Add(seed, true)
		f.Add(seed, false)
	}

	f.Fuzz(func(t *testing.T, data []byte, atJournal bool) {
		path := filepath.Join(t.TempDir(), "decisions")
		target := path
		if atJournal {
			target = path + journalSuffix
		}
		if err := os.WriteFile(target, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path)
		if err != nil {
			if len(data) < framelog.HeaderSize && strings.HasPrefix(Magic, string(data[:min(len(data), len(Magic))])) {
				t.Fatalf("Open refused a torn header: %v", err)
			}
			if got, _ := os.ReadFile(target); !bytes.Equal(got, data) {
				t.Fatal("Open modified a file it refused")
			}
			return
		}
		first := loadedDecisions(t, st)
		if got := st.Stats().Loaded; got != len(first) {
			t.Fatalf("Stats().Loaded = %d, cache holds %d decisions", got, len(first))
		}
		for k, line := range first {
			e, err := decodeEntry(line)
			if err != nil {
				t.Fatalf("%s: re-encoded record does not decode: %v", k, err)
			}
			again, err := encodeEntry(e)
			if err != nil || !bytes.Equal(again, line) {
				t.Fatalf("%s: record codec not stable:\n %s\n %s", k, line, again)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		got, err := os.ReadFile(target)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !atJournal:
			if !bytes.Equal(got, data) {
				t.Fatal("Open rewrote the snapshot")
			}
		case !bytes.HasPrefix(data, got):
			if !bytes.Equal(got, format.Header()) {
				t.Fatalf("journal is neither a prefix of its bytes nor a fresh header: %q", got)
			}
		}

		st2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after Close: %v", err)
		}
		defer st2.Close()
		if second := loadedDecisions(t, st2); !reflect.DeepEqual(first, second) {
			t.Fatalf("reopen loaded %d decisions, first open %d", len(second), len(first))
		}
	})
}
