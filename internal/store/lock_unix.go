//go:build unix

package store

import (
	"fmt"
	"os"
	"syscall"
)

// lockJournal enforces the single-writer rule: it takes an exclusive,
// non-blocking flock on the journal at path (creating the file if
// absent) and returns the function that releases it. The kernel drops
// the lock when the holding process dies, so a killed writer leaves no
// stale lock behind.
func lockJournal(path string) (func(), error) {
	f, err := os.OpenFile(path, os.O_RDONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: cannot lock %s; is another store open on it? (one writer per cache file): %w", path, err)
	}
	return func() { f.Close() }, nil
}
