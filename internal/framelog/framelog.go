package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

const (
	// HeaderSize is the byte length of the file header: the 8-byte magic
	// then the uint32 version.
	HeaderSize = 12
	// MaxPayload bounds one frame's payload. A length field beyond it is
	// corruption and ends the good prefix.
	MaxPayload = 1 << 26
	// frameHeaderSize is the length-plus-CRC prefix of every frame.
	frameHeaderSize = 8
	// bufSize caps the appended bytes an Appender holds before it writes
	// them out.
	bufSize = 64 << 10
	// readBufSize caps Scan's read buffer. It is small because graph-store
	// loads run on the request path, one file per first touch, and large
	// payloads bypass the buffer anyway.
	readBufSize = 4 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors for refused files. Scan and ScanFile wrap them with details;
// test with errors.Is.
var (
	ErrForeign = errors.New("unrecognized file header (refusing to overwrite; move the file aside to start fresh)")
	ErrVersion = errors.New("unsupported format version (refusing to overwrite; move the file aside to start fresh)")
)

// Format names one kind of log: the magic that opens its files, exactly
// 8 bytes, and the one version this build reads and writes.
type Format struct {
	Magic   string
	Version uint32
}

// Header returns the 12 header bytes every file of the format opens with.
func (f Format) Header() []byte {
	return binary.LittleEndian.AppendUint32([]byte(f.Magic), f.Version)
}

// Scan reads a log from r, passing each intact frame's payload to decode
// in file order (the slice is valid only during the call), and returns
// the byte length of the good prefix, as the package doc defines it. An
// alien magic or another version is an error wrapping ErrForeign or
// ErrVersion. When r is an *os.File, a frame longer than the rest of the
// file is torn without being read.
func Scan(r io.Reader, f Format, decode func(payload []byte) error) (int64, error) {
	limit := int64(math.MaxInt64)
	if file, ok := r.(*os.File); ok {
		fi, err := file.Stat()
		if err != nil {
			return 0, err
		}
		limit = fi.Size()
	}
	br := bufio.NewReaderSize(r, int(min(limit, readBufSize)))
	var hdr [HeaderSize]byte
	n, err := io.ReadFull(br, hdr[:])
	if err != nil && !isEOF(err) {
		return 0, err
	}
	magic := string(hdr[:min(n, len(f.Magic))])
	if n < HeaderSize {
		if !strings.HasPrefix(f.Magic, magic) {
			return 0, fmt.Errorf("%w: short file %q", ErrForeign, hdr[:n])
		}
		return 0, nil // torn header: nothing was ever durable
	}
	if magic != f.Magic {
		return 0, fmt.Errorf("%w: magic %q, want %q", ErrForeign, magic, f.Magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(f.Magic):]); v != f.Version {
		return 0, fmt.Errorf("%w: file is version %d, this build reads only %d", ErrVersion, v, f.Version)
	}

	good := int64(HeaderSize)
	var fh [frameHeaderSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			return endAt(good, err)
		}
		size := binary.LittleEndian.Uint32(fh[0:4])
		if size == 0 || size > MaxPayload || good+frameHeaderSize+int64(size) > limit {
			return good, nil
		}
		payload = slices.Grow(payload[:0], int(size))[:size]
		if _, err := io.ReadFull(br, payload); err != nil {
			return endAt(good, err)
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(fh[4:8]) || decode(payload) != nil {
			return good, nil
		}
		good += frameHeaderSize + int64(size)
	}
}

// isEOF reports whether err ends a read at the end of the file: cleanly
// or inside a header or frame.
func isEOF(err error) bool {
	return err == io.EOF || err == io.ErrUnexpectedEOF
}

// endAt ends a scan on a read error: the end of the file closes the good
// prefix, any other error aborts the scan.
func endAt(good int64, err error) (int64, error) {
	if isEOF(err) {
		return good, nil
	}
	return 0, err
}

// ScanFile scans the log at path (see Scan). A missing file is an empty
// log with a good prefix of 0. Errors name the path.
func ScanFile(path string, f Format, decode func(payload []byte) error) (int64, error) {
	file, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer file.Close()
	good, err := Scan(file, f, decode)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return good, nil
}

// Appender appends frames to one log file. It is not safe for concurrent
// use. Construct with OpenAppender.
type Appender struct {
	f     *os.File
	buf   []byte // appended bytes not yet written to f
	err   error  // first write error, sticky
	size  int64  // logical file length, buffered bytes included
	fresh bool   // a header was written and the directory not yet synced
}

// OpenAppender opens the log at path for appending after its first good
// bytes, a length Scan returned for it: it creates the file if absent,
// cuts off whatever follows the good prefix, and, when good is 0, writes
// a fresh header. A good prefix inside the header is an error.
func OpenAppender(path string, f Format, good int64) (*Appender, error) {
	if good != 0 && good < HeaderSize {
		return nil, fmt.Errorf("framelog: %s: good prefix %d ends inside the header", path, good)
	}
	file, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	a := &Appender{f: file}
	if err := a.truncate(good); err != nil {
		file.Close()
		return nil, fmt.Errorf("framelog: %s: %w", path, err)
	}
	if good == 0 {
		a.buf, a.size, a.fresh = f.Header(), HeaderSize, true
	}
	return a, nil
}

// truncate discards buffered bytes and cuts the file to n bytes; the
// file is in append mode, so the next write lands there.
func (a *Appender) truncate(n int64) error {
	a.buf = a.buf[:0]
	a.size = n
	return a.f.Truncate(n)
}

// Append buffers one frame holding payload, which must be 1..MaxPayload
// bytes. The caller may reuse payload once Append returns.
func (a *Appender) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > MaxPayload {
		return fmt.Errorf("framelog: payload of %d bytes outside 1..%d", len(payload), MaxPayload)
	}
	a.buf = binary.LittleEndian.AppendUint32(a.buf, uint32(len(payload)))
	a.buf = binary.LittleEndian.AppendUint32(a.buf, crc32.Checksum(payload, castagnoli))
	a.buf = append(a.buf, payload...)
	a.size += frameHeaderSize + int64(len(payload))
	if len(a.buf) >= bufSize {
		return a.Flush()
	}
	return a.err
}

// Size returns the file's length once every buffered byte is written.
func (a *Appender) Size() int64 { return a.size }

// Flush hands the buffered bytes, if any, to the operating system, which
// makes them survive a killed process but not an operating-system crash.
func (a *Appender) Flush() error {
	if a.err == nil && len(a.buf) > 0 {
		_, a.err = a.f.Write(a.buf)
		a.buf = a.buf[:0]
	}
	return a.err
}

// Commit flushes and fsyncs the file, and after a fresh header also fsyncs
// its directory: every frame appended so far survives any crash.
func (a *Appender) Commit() error {
	if err := a.Flush(); err != nil {
		return err
	}
	if err := a.f.Sync(); err != nil {
		return err
	}
	if a.fresh {
		syncDir(filepath.Dir(a.f.Name()))
		a.fresh = false
	}
	return nil
}

// Reset drops every frame, leaving a durable bare header.
func (a *Appender) Reset() error {
	if err := a.Flush(); err != nil { // a fresh header must reach the file
		return err
	}
	if err := a.truncate(HeaderSize); err != nil {
		return err
	}
	return a.Commit()
}

// Close syncs and closes the file.
func (a *Appender) Close() error {
	err := a.Commit()
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFile atomically replaces the log at path with a header and one
// frame per payload: it writes a temporary file in the same directory,
// fsyncs it, renames it over path and fsyncs the directory.
func WriteFile(path string, f Format, payloads [][]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op after the rename
	a := &Appender{f: tmp, buf: f.Header()}
	for i := 0; err == nil && i < len(payloads); i++ {
		err = a.Append(payloads[i])
	}
	if cerr := a.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a new or renamed entry in it is durable.
// Best effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
