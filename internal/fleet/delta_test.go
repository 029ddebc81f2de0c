package fleet

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// Delta-encoded parking. The byte-level soundness proof (delta park ≡ full
// park over the whole op alphabet) lives in internal/check/delta_test.go;
// these tests cover the fleet wiring: the parked-bytes gauge, the ≥5×
// footprint reduction the 10^6-device claim rests on, and report identity
// between a parking fleet and one that never parks under a real soak.

// waitParks polls until at least n parks have landed. Eviction hands the
// seat over before the victim's actor finishes draining, so tests that read
// park-side state (the gauge, a parked snapshot) wait on the counter first.
func waitParks(t *testing.T, f *Fleet, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.Metrics().CounterValue(MetricParks) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d parks", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// footprint is the device's dense resting cost — what parking the whole
// world instead of its delta would pin — on the same scale Deflate reports.
func (d *device) footprint() int64 {
	return d.dev.FootprintBytes() + d.looseBytes()
}

// driveFootprintTraffic opens a fleet of the given resident cap and gives
// 192 devices spread over 4096 logical IDs divergence beyond the boot
// image: a touched page and a written disk sector each.
func driveFootprintTraffic(t *testing.T, residentCap int) (*Fleet, int) {
	t.Helper()
	f := Open(4096, WithSeed(11), WithShards(4), WithResidentCap(residentCap))
	t.Cleanup(f.Stop)
	ctx := context.Background()
	const touched = 192
	for i := 0; i < touched; i++ {
		id := DeviceID(i * 16)
		if _, err := f.Do(ctx, id, Op{Code: OpTouch, Arg: uint64(i)}); err != nil {
			t.Fatalf("touch %d: %v", id, err)
		}
		if _, err := f.Do(ctx, id, Op{Code: OpDiskWrite, Arg: uint64(i)}); err != nil {
			t.Fatalf("disk write %d: %v", id, err)
		}
	}
	return f, touched
}

// TestDeltaParkingShrinksParkedBytes is the fleet-level memory claim: a
// delta-parked device rests at least 5x below the same device held dense.
// The delta figure is the parked-bytes gauge of a capped fleet; the dense
// figure is the footprint of the same traffic on an uncapped fleet, whose
// devices never park.
func TestDeltaParkingShrinksParkedBytes(t *testing.T) {
	capped, touched := driveFootprintTraffic(t, 32)
	h, err := capped.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	parked := h.Touched - h.Resident
	if parked <= 0 {
		t.Fatalf("nothing parked (touched %d, resident %d)", h.Touched, h.Resident)
	}
	// The gauge is complete only once every eviction's park has landed.
	waitParks(t, capped, uint64(parked))
	deltaPer := capped.Metrics().GaugeValue(MetricParkedBytes) / int64(parked)
	capped.Stop()
	if deltaPer <= 0 {
		t.Fatalf("parked-bytes gauge reads %d B/device with %d parked devices", deltaPer, parked)
	}

	dense, _ := driveFootprintTraffic(t, 0)
	dense.Stop()
	var total int64
	var n int
	for _, sh := range dense.top.Load().shards {
		for _, sl := range sh.slots {
			total += sl.act.d.footprint()
			n++
		}
	}
	if n != touched {
		t.Fatalf("uncapped fleet holds %d devices, want %d", n, touched)
	}
	densePer := total / int64(n)
	if densePer < 5*deltaPer {
		t.Fatalf("delta parking reduction < 5x: dense %d B/device, delta %d B/device",
			densePer, deltaPer)
	}
	t.Logf("parked footprint: dense %d B/device, delta %d B/device (%.1fx)",
		densePer, deltaPer, float64(densePer)/float64(deltaPer))
}

// TestDeltaParkSoakIdentical runs the same chaos soak on a capped fleet,
// whose devices delta-park and hydrate mid-soak, and on an uncapped one,
// whose devices never park: the reports — every ledger digest, retry
// count, and failure class — must be byte-identical. Parking is a memory
// decision, never a behavioral one.
func TestDeltaParkSoakIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("soak comparison skipped in -short")
	}
	cfg := SoakConfig{
		Devices:      16,
		OpsPerDevice: 30,
		Seed:         7,
		Faults:       "benign",
		ResidentCap:  6, // far under Devices: parks and hydrations mid-soak
		Shards:       4,
	}
	delta, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ResidentCap = 0
	resident, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Passed() {
		t.Fatalf("delta soak failed: %v / %v", delta.Problems, delta.Violations)
	}
	dj, _ := json.MarshalIndent(delta, "", " ")
	rj, _ := json.MarshalIndent(resident, "", " ")
	if string(dj) != string(rj) {
		t.Fatalf("delta-park vs never-parked reports diverged:\ndelta: %s\nresident: %s", dj, rj)
	}
}

// TestParkedBytesGaugeLifecycle: the gauge rises when a live device parks,
// holds while it is parked, and replaces (not double-counts) on re-park.
func TestParkedBytesGaugeLifecycle(t *testing.T) {
	f := Open(64, WithSeed(3), WithShards(1), WithResidentCap(1))
	defer f.Stop()
	ctx := context.Background()

	if _, err := f.Do(ctx, 0, Op{Code: OpTouch}); err != nil {
		t.Fatal(err)
	}
	if b := f.Metrics().GaugeValue(MetricParkedBytes); b != 0 {
		t.Fatalf("parked bytes = %d with nothing parked", b)
	}
	// Touching a second device evicts the first into a delta park.
	if _, err := f.Do(ctx, 1, Op{Code: OpTouch}); err != nil {
		t.Fatal(err)
	}
	waitParks(t, f, 1)
	b1 := f.Metrics().GaugeValue(MetricParkedBytes)
	if b1 <= 0 {
		t.Fatalf("parked bytes = %d after an eviction", b1)
	}
	// Bounce device 0 back in (parks 1) and out (re-parks 0): the gauge
	// tracks two parked-device records, then settles near its prior level
	// as re-parks replace earlier records rather than accumulate.
	if _, err := f.Do(ctx, 0, Op{Code: OpTouch}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Do(ctx, 1, Op{Code: OpTouch}); err != nil {
		t.Fatal(err)
	}
	waitParks(t, f, 3)
	// Three parks happened but only two records exist; an accumulating
	// gauge would sit near 3x the first park.
	b2 := f.Metrics().GaugeValue(MetricParkedBytes)
	if b2 <= 0 || b2 > 5*b1/2 {
		t.Fatalf("parked bytes after re-park cycles = %d (first park %d): gauge accumulates", b2, b1)
	}
}
