package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"sentry/internal/fleet"
	"sentry/internal/wallclock"
)

// Fixed geometry for the parked-footprint measurement: a capped fleet where
// most touched devices end up parked, with enough per-device divergence
// (touch + disk write) that the delta encoding has real work to do. The
// resulting byte counts are deterministic for a fixed seed, so `make scale`
// can diff two runs.
const (
	scaleLogical = 4096
	scaleTouched = 192
	scaleCap     = 32
)

// scaleSoakCap is the resident cap of the parking soaks: well under the
// device count (parks and hydrations happen mid-soak) while still admitting
// the 16-shard reshard target.
const scaleSoakCap = 16

// runFleetScale is the capacity-claim smoke behind `make scale`: it proves
// the two memory/topology mechanisms of the 10^6-device fleet are
// behaviorally invisible (delta-parked and reshard-interrupted soaks report
// byte-identically to a soak whose devices never park) and measures what a
// parked device costs at rest. Every "scale:" line is deterministic for a
// fixed seed. The measured footprint is recorded to / guarded against the
// "scale" record of BENCH_wallclock.json; the >=5x reduction over a dense
// device is pinned by TestDeltaParkingShrinksParkedBytes.
func runFleetScale(devices, ops int, seed int64, wallOut, wallGuard string) bool {
	start := time.Now()
	cfg := fleet.SoakConfig{
		Devices: devices, OpsPerDevice: ops, Seed: seed, Faults: "benign", Shards: 4,
	}

	plain, ok := soakJSON(cfg, scaleSoakCap, false)
	if !ok {
		return false
	}
	resident, ok := soakJSON(cfg, 0, false)
	if !ok {
		return false
	}
	if string(plain) != string(resident) {
		fmt.Fprintln(os.Stderr, "sentrybench: delta-park and never-parked soak reports diverge")
		return false
	}
	fmt.Printf("scale: delta-park == never-parked soak report (%d devices, %d ops each)\n",
		cfg.Devices, cfg.OpsPerDevice)

	resharded, ok := soakJSON(cfg, scaleSoakCap, true)
	if !ok {
		return false
	}
	if string(plain) != string(resharded) {
		fmt.Fprintln(os.Stderr, "sentrybench: resharding mid-soak changed the report")
		return false
	}
	fmt.Println("scale: reshard 4->8->16 mid-soak report byte-identical")

	perDevice, err := parkedBytesPerDevice(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sentrybench:", err)
		return false
	}
	fmt.Printf("scale: parked footprint delta=%d B/device\n", perDevice)

	run := &wallclock.Run{Parallelism: 1, TotalSec: time.Since(start).Seconds(), BytesPerDevice: perDevice}
	if wallOut != "" {
		recordWallclock(wallOut, "scale", seed, run)
	}
	if wallGuard != "" {
		guardWallclock(wallGuard, "scale", run)
	}
	return true
}

// soakJSON runs the client-observed soak (fleet.SoakOn) against a fleet of
// fixed geometry and returns the indented JSON report. The three variants —
// delta parking under a resident cap, no cap (no device ever parks), and
// delta parking with two live reshards (4->8 once real traffic flows, then
// ->16) racing the soak — must all report byte-identically; parking and
// topology are memory/placement decisions, never behavioral ones.
func soakJSON(cfg fleet.SoakConfig, residentCap int, reshard bool) ([]byte, bool) {
	f := fleet.Open(cfg.Devices,
		fleet.WithSeed(cfg.Seed), fleet.WithShards(cfg.Shards), fleet.WithResidentCap(residentCap))
	done := make(chan error, 1)
	if reshard {
		go func() {
			for _, n := range []int{8, 16} {
				for f.Metrics().CounterValue(fleet.MetricExecs) < uint64(n*10) {
					time.Sleep(200 * time.Microsecond)
				}
				if err := f.Reshard(n); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	} else {
		done <- nil
	}
	rep, err := fleet.SoakOn(f, cfg)
	if rerr := <-done; err == nil {
		err = rerr
	}
	f.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sentrybench:", err)
		return nil, false
	}
	if v := f.SweepConfidentiality(); len(v) != 0 {
		fmt.Fprintf(os.Stderr, "sentrybench: scale soak sweep violations: %v\n", v)
		return nil, false
	}
	if !rep.Passed() {
		fmt.Fprintf(os.Stderr, "sentrybench: scale soak FAILED: %d problems, %d violations\n",
			len(rep.Problems), len(rep.Violations))
		return nil, false
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sentrybench:", err)
		return nil, false
	}
	return out, true
}

// parkedBytesPerDevice opens the fixed measurement fleet, touches devices
// spread across the ID space until well past the resident cap, waits for
// every eviction's park to land, and reads the parked-bytes gauge.
func parkedBytesPerDevice(seed int64) (int64, error) {
	f := fleet.Open(scaleLogical, fleet.WithSeed(seed), fleet.WithShards(4), fleet.WithResidentCap(scaleCap))
	defer f.Stop()
	ctx := context.Background()
	for i := 0; i < scaleTouched; i++ {
		id := fleet.DeviceID(i * (scaleLogical / scaleTouched))
		if _, err := f.Do(ctx, id, fleet.Op{Code: fleet.OpTouch, Arg: uint64(i)}); err != nil {
			return 0, fmt.Errorf("touch %d: %w", id, err)
		}
		if _, err := f.Do(ctx, id, fleet.Op{Code: fleet.OpDiskWrite, Arg: uint64(i)}); err != nil {
			return 0, fmt.Errorf("disk write %d: %w", id, err)
		}
	}
	// Evictions free the seat before the victim's park lands; the byte total
	// is only complete (and deterministic) once every park has.
	const wantParks = scaleTouched - scaleCap
	deadline := time.Now().Add(10 * time.Second)
	for f.Metrics().CounterValue(fleet.MetricParks) < wantParks {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("timed out waiting for %d parks", wantParks)
		}
		time.Sleep(time.Millisecond)
	}
	return f.Metrics().GaugeValue(fleet.MetricParkedBytes) / wantParks, nil
}
