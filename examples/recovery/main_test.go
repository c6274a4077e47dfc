package main

import "testing"

// TestMainRuns runs the example end to end. A failed step ends the test
// binary through log.Fatal or a panic, which fails the test.
func TestMainRuns(t *testing.T) { main() }
