// Package lib is the export gate fixture's internal package: each exported
// identifier is named after what the gate must conclude about it.
package lib

// Unused is referenced by no other file.
func Unused() {}

// Kept is referenced by no other file, but allowlisted.
func Kept() {}

// Used is referenced by app.
func Used() {}

// BenchOnly is referenced by the benchmark package alone.
func BenchOnly() {}

// Impl satisfies app.Namer, which app calls through.
type Impl struct{}

func (Impl) Name() string { return "impl" }
func (Impl) Kind() int    { return 1 }

// Other has Name but not Kind, so it does not satisfy app.Namer.
type Other struct{}

func (Other) Name() string { return "other" }
