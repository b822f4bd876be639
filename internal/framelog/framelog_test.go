package framelog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var testFormat = Format{Magic: "TESTLOG1", Version: 3}

// payloads is a small frame sequence of distinct lengths.
func payloads() [][]byte {
	var out [][]byte
	for i := 1; i <= 5; i++ {
		out = append(out, bytes.Repeat([]byte{byte('a' + i)}, 10*i))
	}
	return out
}

// writeLog writes a log holding ps through an Appender and returns its
// bytes.
func writeLog(t *testing.T, path string, ps [][]byte) []byte {
	t.Helper()
	a, err := OpenAppender(path, testFormat, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if err := a.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	size := a.Size()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != size {
		t.Fatalf("file is %d bytes, Size said %d", len(data), size)
	}
	return data
}

// scan runs Scan over data and returns the payloads it accepted.
func scan(t *testing.T, data []byte) ([][]byte, int64, error) {
	t.Helper()
	var got [][]byte
	good, err := Scan(bytes.NewReader(data), testFormat, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	return got, good, err
}

// frameEnds returns the offset just past each frame of a well-formed log.
func frameEnds(ps [][]byte) []int64 {
	var ends []int64
	off := int64(HeaderSize)
	for _, p := range ps {
		off += frameHeaderSize + int64(len(p))
		ends = append(ends, off)
	}
	return ends
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	ps := payloads()
	data := writeLog(t, path, ps)
	if !bytes.HasPrefix(data, testFormat.Header()) {
		t.Fatalf("file does not open with the header: %q", data[:HeaderSize])
	}
	var got [][]byte
	good, err := ScanFile(path, testFormat, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if good != int64(len(data)) || !reflect.DeepEqual(got, ps) {
		t.Fatalf("ScanFile = %d bytes, %d frames; want %d bytes, %d frames", good, len(got), len(data), len(ps))
	}
	if good, err := ScanFile(filepath.Join(t.TempDir(), "missing"), testFormat, nil); err != nil || good != 0 {
		t.Fatalf("missing file = (%d, %v), want (0, nil)", good, err)
	}
}

// TestTornTail cuts the log at every length: the scan keeps exactly the
// frames that end inside the cut, and a cut inside the header is an
// empty log.
func TestTornTail(t *testing.T) {
	ps := payloads()
	data := writeLog(t, filepath.Join(t.TempDir(), "log"), ps)
	ends := frameEnds(ps)
	for cut := 0; cut <= len(data); cut++ {
		got, good, err := scan(t, data[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		whole := 0
		for whole < len(ends) && ends[whole] <= int64(cut) {
			whole++
		}
		wantGood := int64(0)
		switch {
		case whole > 0:
			wantGood = ends[whole-1]
		case cut >= HeaderSize:
			wantGood = HeaderSize
		}
		if good != wantGood || len(got) != whole {
			t.Fatalf("cut %d: good %d with %d frames, want %d with %d", cut, good, len(got), wantGood, whole)
		}
	}
}

// TestCorruptFrameEndsPrefix damages one frame at a time — a payload
// bit flip, a zero length, an oversized length — and a decoder
// rejection: the scan keeps every frame before it and none after.
func TestCorruptFrameEndsPrefix(t *testing.T) {
	ps := payloads()
	data := writeLog(t, filepath.Join(t.TempDir(), "log"), ps)
	ends := frameEnds(ps)
	for victim := range ps {
		start := int64(HeaderSize)
		if victim > 0 {
			start = ends[victim-1]
		}
		for name, damage := range map[string]func(b []byte){
			"bitflip":  func(b []byte) { b[start+frameHeaderSize+3] ^= 0x10 },
			"crc":      func(b []byte) { b[start+4] ^= 0x01 },
			"zero-len": func(b []byte) { copy(b[start:], []byte{0, 0, 0, 0}) },
			"oversize": func(b []byte) { copy(b[start:], []byte{0xff, 0xff, 0xff, 0x7f}) },
		} {
			mut := append([]byte(nil), data...)
			damage(mut)
			got, good, err := scan(t, mut)
			if err != nil || good != start || len(got) != victim {
				t.Errorf("%s in frame %d: good %d with %d frames (err %v), want %d with %d",
					name, victim, good, len(got), err, start, victim)
			}
		}
		n := 0
		good, err := Scan(bytes.NewReader(data), testFormat, func([]byte) error {
			if n == victim {
				return errors.New("rejected")
			}
			n++
			return nil
		})
		if err != nil || good != start {
			t.Errorf("decoder rejecting frame %d: good %d (err %v), want %d", victim, good, err, start)
		}
	}
}

// TestRefusals: an alien magic, a short alien file and another version
// are errors that ScanFile reports with the path, and no byte of the
// file changes.
func TestRefusals(t *testing.T) {
	older := Format{Magic: testFormat.Magic, Version: testFormat.Version - 1}.Header()
	newer := Format{Magic: testFormat.Magic, Version: testFormat.Version + 1}.Header()
	for _, c := range []struct {
		data []byte
		want error
	}{
		{[]byte("somebody else's file, hands off"), ErrForeign},
		{[]byte("abc"), ErrForeign},
		{[]byte(`{"format":"v1 line"}` + "\n"), ErrForeign},
		{older, ErrVersion},
		{append(newer, 1, 0, 0, 0), ErrVersion},
	} {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ScanFile(path, testFormat, func([]byte) error { return nil })
		if !errors.Is(err, c.want) || !strings.Contains(err.Error(), path) {
			t.Errorf("%q: err %v, want %v naming %s", c.data, err, c.want, path)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, c.data) {
			t.Errorf("%q: refused file changed to %q", c.data, got)
		}
	}
}

// failingReader serves data, then fails with err instead of io.EOF.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestScanReadErrorAborts: a read error anywhere in the file — inside
// the header, a frame header or a payload — is returned, never read as
// a torn tail.
func TestScanReadErrorAborts(t *testing.T) {
	data := writeLog(t, filepath.Join(t.TempDir(), "log"), payloads())
	boom := errors.New("disk on fire")
	for _, cut := range []int{0, 5, HeaderSize, HeaderSize + 3, HeaderSize + frameHeaderSize + 4, len(data) - 1, len(data)} {
		r := &failingReader{data: data[:cut], err: boom}
		if good, err := Scan(r, testFormat, func([]byte) error { return nil }); !errors.Is(err, boom) {
			t.Errorf("read error after %d bytes: (%d, %v), want the error", cut, good, err)
		}
	}
	// The same through ScanFile: a directory reads with an error.
	if _, err := ScanFile(t.TempDir(), testFormat, func([]byte) error { return nil }); err == nil {
		t.Error("ScanFile of a directory succeeded")
	}
}

// TestAppenderResumesAtGoodPrefix: garbage after the good prefix is cut
// off and new frames follow the last good one; good 0 rewrites the
// header over a torn one.
func TestAppenderResumesAtGoodPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	ps := payloads()
	data := writeLog(t, path, ps)
	if err := os.WriteFile(path, append(data, 7, 0, 0, 0, 1, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	good, err := ScanFile(path, testFormat, func([]byte) error { return nil })
	if err != nil || good != int64(len(data)) {
		t.Fatalf("good prefix %d (err %v), want %d", good, err, len(data))
	}
	a, err := OpenAppender(path, testFormat, good)
	if err != nil {
		t.Fatal(err)
	}
	extra := []byte("appended after a torn tail")
	if err := a.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(path)
	if got, good, err := scan(t, after); err != nil || good != int64(len(after)) || !reflect.DeepEqual(got, append(ps, extra)) {
		t.Fatalf("after resume: %d frames, good %d of %d (err %v)", len(got), good, len(after), err)
	}

	if err := os.WriteFile(path, []byte(testFormat.Magic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err = OpenAppender(path, testFormat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, testFormat.Header()) {
		t.Fatalf("torn header rewritten as %q", got)
	}
	if _, err := OpenAppender(path, testFormat, HeaderSize-1); err == nil {
		t.Fatal("OpenAppender accepted a good prefix inside the header")
	}
}

func TestAppenderResetAndLimits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	a, err := OpenAppender(path, testFormat, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads() {
		if err := a.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Reset(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, testFormat.Header()) || a.Size() != HeaderSize {
		t.Fatalf("after Reset: file %q, Size %d; want a bare header", got, a.Size())
	}
	if err := a.Append(nil); err == nil {
		t.Error("Append accepted an empty payload")
	}
	if err := a.Append(make([]byte, MaxPayload+1)); err == nil {
		t.Error("Append accepted an oversized payload")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFile: the replacement is complete, leaves no temporary file
// behind, and identical payloads give identical bytes.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if err := os.WriteFile(path, []byte("old contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	ps := payloads()
	if err := WriteFile(path, testFormat, ps); err != nil {
		t.Fatal(err)
	}
	first, _ := os.ReadFile(path)
	if got, good, err := scan(t, first); err != nil || good != int64(len(first)) || !reflect.DeepEqual(got, ps) {
		t.Fatalf("WriteFile output scans to %d frames, good %d of %d (err %v)", len(got), good, len(first), err)
	}
	if err := WriteFile(path, testFormat, ps); err != nil {
		t.Fatal(err)
	}
	if second, _ := os.ReadFile(path); !bytes.Equal(first, second) {
		t.Error("identical payloads wrote different bytes")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("directory holds %d entries, want only the log", len(ents))
	}
	if err := WriteFile(path, testFormat, [][]byte{{}}); err == nil {
		t.Error("WriteFile accepted an empty payload")
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, first) {
		t.Error("a failed WriteFile changed the target")
	}
}
