//go:build race

package agreement

// raceEnabled reports whether the race detector is compiled in; it changes
// allocation counts, so the allocation gates skip under it.
const raceEnabled = true
