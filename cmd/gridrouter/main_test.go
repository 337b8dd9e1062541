package main

import (
	"testing"

	"gridsched/internal/testkit"
)

// TestFlagsMatchREADME: the flag set, names and defaults, is README's
// "gridrouter flags" table.
func TestFlagsMatchREADME(t *testing.T) {
	fs, _, _ := flags()
	testkit.FlagsMatchTable(t, fs, "../../README.md", "**gridrouter flags")
}
