//go:build !race

package core

// raceEnabled reports whether this binary was built with -race, whose
// instrumentation allocates and whose sync.Pool drops items on purpose:
// allocation-count guards skip under it.
const raceEnabled = false
