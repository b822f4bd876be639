//go:build !unix

package store

// lockJournal is a no-op where flock is unavailable: the single-writer
// rule is documented but not enforced there.
func lockJournal(string) (func(), error) { return func() {}, nil }
