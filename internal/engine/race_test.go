//go:build race

package engine

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// its Puts at random, so pooled scratch is reallocated more often.
const raceEnabled = true
