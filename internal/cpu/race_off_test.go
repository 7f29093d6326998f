//go:build !race

package cpu

// raceEnabled reports whether the race detector is compiled in; the
// allocation gates skip under it because its instrumentation allocates.
const raceEnabled = false
