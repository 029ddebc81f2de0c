package wallclock

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestRecordPreservesOtherKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wc.json")
	if err := Record(path, "serial", 1, &Run{Parallelism: 1, TotalSec: 6.5}); err != nil {
		t.Fatal(err)
	}
	if err := Record(path, "explore", 1, &Run{Parallelism: 0, TotalSec: 5.7, OpsPerSec: 6000}); err != nil {
		t.Fatal(err)
	}
	// Re-recording one kind must not clobber the other.
	if err := Record(path, "serial", 1, &Run{Parallelism: 1, TotalSec: 6.0}); err != nil {
		t.Fatal(err)
	}
	serial, err := load(path, "serial")
	if err != nil {
		t.Fatal(err)
	}
	if serial.TotalSec != 6.0 {
		t.Fatalf("serial total = %v, want the re-recorded 6.0", serial.TotalSec)
	}
	explore, err := load(path, "explore")
	if err != nil {
		t.Fatal(err)
	}
	if explore.OpsPerSec != 6000 {
		t.Fatalf("explore record lost across serial re-record: %+v", explore)
	}
	if _, err := load(path, "parallel"); err == nil {
		t.Fatal("load of an unrecorded kind succeeded")
	}
}

// TestGuardHeadroom holds a duration kind to 1.25x its own record; a kind
// without guard rows and a kind without a record fail rather than pass
// vacuously, and rows of kinds without a run are reported as not run.
func TestGuardHeadroom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wc.json")
	if err := Record(path, "check", 1, &Run{Parallelism: 1, TotalSec: 4}); err != nil {
		t.Fatal(err)
	}
	lines, ok := Guard(path, map[string]*Run{"check": {TotalSec: 4.9}})
	if !ok {
		t.Fatalf("run within headroom failed the guard: %q", lines)
	}
	if len(lines) != len(table) {
		t.Fatalf("%d lines for %d table rows: %q", len(lines), len(table), lines)
	}
	for i, b := range table {
		if notRun := strings.HasSuffix(lines[i], ": not run"); notRun != (b.kind != "check") {
			t.Errorf("row %d %+v: %q", i, b, lines[i])
		}
	}
	if _, ok := Guard(path, map[string]*Run{"check": {TotalSec: 5.1}}); ok {
		t.Fatal("run past headroom passed the guard")
	}
	if lines, ok := Guard(path, map[string]*Run{"missing": {TotalSec: 1}}); ok ||
		!strings.Contains(lines[len(lines)-1], `no guard for run kind "missing"`) {
		t.Fatalf("guard of a kind without rows: ok=%v %q", ok, lines)
	}
	if _, ok := Guard(path, map[string]*Run{"serial": {TotalSec: 1}}); ok {
		t.Fatal("guard against a missing record passed")
	}
}

func TestGuardThroughputFloor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wc.json")
	if err := Record(path, "explore-baseline", 1, &Run{TotalSec: 74, OpsPerSec: 300}); err != nil {
		t.Fatal(err)
	}
	// Floor is recorded/1.25 = 240: throughput rows invert the comparison
	// (lower is worse).
	if lines, ok := Guard(path, map[string]*Run{"explore-baseline": {OpsPerSec: 241}}); !ok {
		t.Fatalf("throughput above the floor failed: %q", lines)
	}
	if _, ok := Guard(path, map[string]*Run{"explore-baseline": {OpsPerSec: 239}}); ok {
		t.Fatal("throughput below the floor passed")
	}
	// A record without ops/sec cannot anchor a throughput guard.
	if err := Record(path, "explore-baseline", 1, &Run{Parallelism: 1, TotalSec: 6}); err != nil {
		t.Fatal(err)
	}
	lines, ok := Guard(path, map[string]*Run{"explore-baseline": {OpsPerSec: 100}})
	if ok || !slices.ContainsFunc(lines, func(l string) bool { return strings.Contains(l, "no ops_per_sec") }) {
		t.Fatalf("guard against a duration-only record: ok=%v %q", ok, lines)
	}
}

// TestGuardTable checks a pass and a fail for every row of the guard
// table, at the edges of the unchanged bounds: 1.25 headroom against a
// kind's own record, 10x the recorded seed-replay rate for the explorer.
// Each fail breaks only its own row; the explore kind has two rows, so its
// records are set so that exactly one of them binds.
func TestGuardTable(t *testing.T) {
	own := func(kind string, rec Run) map[string]Run { return map[string]Run{kind: rec} }
	exploreRecs := func(baseline float64) map[string]Run {
		return map[string]Run{"explore": {OpsPerSec: 6000}, "explore-baseline": {OpsPerSec: baseline}}
	}
	cases := []struct {
		row        int // index into table
		records    map[string]Run
		pass, fail Run
	}{
		{0, own("serial", Run{TotalSec: 4}), Run{TotalSec: 4.9}, Run{TotalSec: 5.1}},
		{1, own("parallel", Run{TotalSec: 4}), Run{TotalSec: 4.9}, Run{TotalSec: 5.1}},
		{2, own("check", Run{TotalSec: 4}), Run{TotalSec: 4.9}, Run{TotalSec: 5.1}},
		// Own floor 6000/1.25 = 4800 binds over the ratio floor 10x400.
		{3, exploreRecs(400), Run{OpsPerSec: 4801}, Run{OpsPerSec: 4799}},
		// Ratio floor 10x800 = 8000 binds over the own floor 4800.
		{4, exploreRecs(800), Run{OpsPerSec: 8001}, Run{OpsPerSec: 7999}},
		{5, own("explore-baseline", Run{OpsPerSec: 400}), Run{OpsPerSec: 321}, Run{OpsPerSec: 319}},
		{6, own("scale", Run{BytesPerDevice: 20000}), Run{BytesPerDevice: 24999}, Run{BytesPerDevice: 25001}},
	}
	covered := make([]bool, len(table))
	for _, c := range cases {
		b := table[c.row]
		covered[c.row] = true
		base := b.kind
		if b.base != "" {
			base = b.base
		}
		path := filepath.Join(t.TempDir(), "wc.json")
		for kind, rec := range c.records {
			if err := Record(path, kind, 1, &rec); err != nil {
				t.Fatal(err)
			}
		}
		if lines, ok := Guard(path, map[string]*Run{b.kind: &c.pass}); !ok {
			t.Errorf("row %d %+v: %+v failed: %q", c.row, b, c.pass, lines)
		} else {
			t.Logf("row %d: %s", c.row, lines[c.row])
		}
		lines, ok := Guard(path, map[string]*Run{b.kind: &c.fail})
		if ok {
			t.Errorf("row %d %+v: %+v passed", c.row, b, c.fail)
		}
		for i, line := range lines {
			broke := strings.HasSuffix(line, "— regression")
			if broke != (i == c.row) || (broke && !strings.Contains(line, "recorded "+base+" ")) {
				t.Errorf("row %d %+v: %+v gave row %d %q", c.row, b, c.fail, i, line)
			}
		}
	}
	for i, ok := range covered {
		if !ok {
			t.Errorf("row %d %+v has no pass/fail case", i, table[i])
		}
	}
}

// TestKinds lists each table kind once, in table order.
func TestKinds(t *testing.T) {
	want := []string{"serial", "parallel", "check", "explore", "explore-baseline", "scale"}
	if got := Kinds(); !slices.Equal(got, want) {
		t.Fatalf("Kinds() = %q, want %q", got, want)
	}
}
