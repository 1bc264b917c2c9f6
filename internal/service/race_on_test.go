//go:build race

package service

// raceEnabled reports whether the race detector is compiled in; the
// model lifecycle hammer keys its -short behaviour on it.
const raceEnabled = true
