package wallclock

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestRecordPreservesOtherKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wc.json")
	if err := Record(path, "serial", 1, &Run{Parallelism: 1, TotalSec: 6.5}); err != nil {
		t.Fatal(err)
	}
	if err := Record(path, "serve", 1, &Run{Parallelism: 512, TotalSec: 10, OpsPerSec: 300}); err != nil {
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
	serve, err := load(path, "serve")
	if err != nil {
		t.Fatal(err)
	}
	if serve.OpsPerSec != 300 {
		t.Fatalf("serve record lost across serial re-record: %+v", serve)
	}
	if _, err := load(path, "parallel"); err == nil {
		t.Fatal("load of an unrecorded kind succeeded")
	}
}

// TestGuardHeadroom holds a duration kind to 1.25x its own record; a kind
// without guard rows and a kind without a record fail rather than pass
// vacuously.
func TestGuardHeadroom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wc.json")
	if err := Record(path, "check", 1, &Run{Parallelism: 1, TotalSec: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := Guard(path, "check", &Run{TotalSec: 4.9}); err != nil {
		t.Fatalf("run within headroom failed the guard: %v", err)
	}
	if _, err := Guard(path, "check", &Run{TotalSec: 5.1}); err == nil {
		t.Fatal("run past headroom passed the guard")
	}
	if _, err := Guard(path, "missing", &Run{TotalSec: 1}); err == nil {
		t.Fatal("guard of a kind without rows passed")
	}
	if _, err := Guard(path, "serial", &Run{TotalSec: 1}); err == nil {
		t.Fatal("guard against a missing record passed")
	}
}

func TestGuardThroughputFloor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wc.json")
	if err := Record(path, "serve", 1, &Run{Parallelism: 512, TotalSec: 10, OpsPerSec: 300}); err != nil {
		t.Fatal(err)
	}
	// Floor is recorded/1.25 = 240: throughput rows invert the comparison
	// (lower is worse).
	if msg, err := Guard(path, "serve", &Run{OpsPerSec: 241}); err != nil {
		t.Fatalf("throughput above the floor failed: %v (%s)", err, msg)
	}
	if _, err := Guard(path, "serve", &Run{OpsPerSec: 239}); err == nil {
		t.Fatal("throughput below the floor passed")
	}
	// A record without ops/sec cannot anchor a throughput guard.
	if err := Record(path, "serve", 1, &Run{Parallelism: 1, TotalSec: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := Guard(path, "serve", &Run{OpsPerSec: 100}); err == nil ||
		!strings.Contains(err.Error(), "no ops_per_sec") {
		t.Fatalf("guard against a duration-only record: %v", err)
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
		{7, own("serve", Run{OpsPerSec: 300}), Run{OpsPerSec: 241}, Run{OpsPerSec: 239}},
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
		if msg, err := Guard(path, b.kind, &c.pass); err != nil {
			t.Errorf("row %d %+v: %+v failed: %v", c.row, b, c.pass, err)
		} else {
			t.Logf("row %d: %s", c.row, msg)
		}
		_, err := Guard(path, b.kind, &c.fail)
		if err == nil {
			t.Errorf("row %d %+v: %+v passed", c.row, b, c.fail)
		} else if !strings.Contains(err.Error(), "recorded "+base+" ") {
			t.Errorf("row %d %+v: %+v failed another row: %v", c.row, b, c.fail, err)
		}
	}
	for i, ok := range covered {
		if !ok {
			t.Errorf("row %d %+v has no pass/fail case", i, table[i])
		}
	}
}
