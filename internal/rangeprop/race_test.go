//go:build race

package rangeprop

// raceEnabled reports that the race detector is instrumenting this build;
// the oracle comparison then covers a subset of the kernels, since
// instrumentation slows the map-based reference walk tenfold.
const raceEnabled = true
