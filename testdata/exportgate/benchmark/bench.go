// Package benchmark references the fixture's internal package from a second
// module, as the benchmark of record does.
package benchmark

import "fixture/internal/lib"

// Run references lib.BenchOnly.
func Run() { lib.BenchOnly() }
