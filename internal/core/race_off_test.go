//go:build !race

package core

// raceEnabled reports whether the test binary runs under the race
// detector, which slows the all-pairs reference scans about tenfold.
const raceEnabled = false
