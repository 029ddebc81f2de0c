package main

import "testing"

// Every guard-table kind has a runner and every runner a row, so -record
// and -guard cover the whole table.
func TestRunnersMatchGuardTable(t *testing.T) {
	if err := checkRunners(); err != nil {
		t.Fatal(err)
	}
}
