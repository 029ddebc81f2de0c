package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"sentry/internal/fleet"
)

// runFleetSoak drives the fleet chaos soak and emits the JSON report on
// stdout. With url empty it owns an in-process fleet (fleet.RunSoak);
// otherwise it drives the sentryd at url through fleet.HTTPClient, and the
// report carries only the client-visible fields, which `make serve-soak`
// diffs across residency configurations. Returns false (non-zero exit) if
// any soak assertion failed: lost or duplicated ops, confidentiality
// violations, unbounded retry amplification, or an untraceable quarantine.
func runFleetSoak(url string, devices, ops int, seed int64, profile string) bool {
	cfg := fleet.SoakConfig{Devices: devices, OpsPerDevice: ops, Seed: seed, Faults: profile}
	var (
		rep *fleet.SoakReport
		err error
	)
	if url == "" {
		rep, err = fleet.RunSoak(cfg)
	} else {
		rep, err = soakHTTP(url, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sentrybench:", err)
		return false
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sentrybench:", err)
		return false
	}
	fmt.Println(string(out))
	if !rep.Passed() {
		fmt.Fprintf(os.Stderr, "sentrybench: fleet soak FAILED: %d problems, %d violations\n",
			len(rep.Problems), len(rep.Violations))
		return false
	}
	return true
}

// soakHTTP runs the soak workload (fleet.SoakOn) against the sentryd at url.
// It first polls the server's health for up to 15 s, since `make
// serve-soak` starts sentryd in the background and points us at it at once.
// cfg.Faults must name the profile the server runs: over HTTP it is report
// metadata only.
func soakHTTP(url string, cfg fleet.SoakConfig) (*fleet.SoakReport, error) {
	c := fleet.NewHTTPClient(url, nil)
	defer c.Close()
	var (
		h   fleet.FleetHealth
		err error
	)
	deadline := time.Now().Add(15 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		h, err = c.Health(ctx)
		cancel()
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if err != nil {
		return nil, fmt.Errorf("health check against %s failed: %w", url, err)
	}
	if uint64(cfg.Devices) > h.Logical {
		return nil, fmt.Errorf("-devices %d exceeds the fleet's %d logical devices", cfg.Devices, h.Logical)
	}
	return fleet.SoakOn(c, cfg)
}
