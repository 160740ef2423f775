//go:build race

package incremental_test

// The race detector's instrumentation allocates where a plain build does
// not, so allocation counts are measured without it.
func init() { raceDetector = true }
