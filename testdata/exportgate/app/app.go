// Package app references the fixture's internal package as a command would.
package app

import "fixture/internal/lib"

// Namer declares the methods lib.Impl implements.
type Namer interface {
	Name() string
	Kind() int
}

// Run references lib's exports.
func Run() string {
	lib.Used()
	var n Namer = lib.Impl{}
	_ = lib.Other{}
	return n.Name()
}
