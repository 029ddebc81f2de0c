// Command sentryload drives a sentryd fleet over the HTTP API.
//
// Its primary mode is an open-loop load test: operations are scheduled at
// a fixed arrival rate (arrival i fires at t0 + i/rate) regardless of how
// fast the server answers, and each op's latency is measured from its
// *scheduled* arrival to completion. A slow server therefore accumulates
// visibly enormous latencies instead of silently slowing the generator
// down — the coordinated-omission trap a closed-loop harness falls into.
//
//	sentryload -url http://127.0.0.1:8473 -devices 1000 -rate 500 -duration 10s
//	sentryload -url ... -rate 500 -duration 30s -wallclock BENCH_wallclock.json
//	sentryload -url ... -rate 500 -duration 30s -wallclock-guard BENCH_wallclock.json
//
// With -soak it instead runs the deterministic closed-loop soak workload
// (fleet.SoakOn) through the HTTP client and prints the JSON report — the
// same report an in-process soak produces for the client-visible fields,
// which is what `make serve-soak` diffs for determinism:
//
//	sentryload -url ... -soak -devices 8 -ops 100 -seed 1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"sentry/internal/fleet"
	"sentry/internal/sim"
	"sentry/internal/wallclock"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8473", "sentryd base URL")
		devices  = flag.Int("devices", 256, "device ID space the load spreads over")
		seed     = flag.Int64("seed", 1, "workload seed")
		rate     = flag.Float64("rate", 200, "target arrival rate, ops/sec (open-loop mode)")
		duration = flag.Duration("duration", 10*time.Second, "load duration (open-loop mode)")
		workers  = flag.Int("workers", 512, "max concurrent in-flight requests (waits count toward latency)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-op deadline")

		soak    = flag.Bool("soak", false, "run the deterministic closed-loop soak workload instead")
		soakOps = flag.Int("ops", 100, "ops per device in -soak mode")
		faults  = flag.String("faults", "benign", "fault profile the target fleet runs (report metadata)")

		wallOut   = flag.String("wallclock", "", "record achieved throughput as the \"serve\" record in this JSON file")
		wallGuard = flag.String("wallclock-guard", "", "fail if achieved throughput fell below the recorded \"serve\" floor")
	)
	flag.Parse()

	c := fleet.NewHTTPClient(*url, nil)
	defer c.Close()

	// Preflight, retrying while the server comes up — `make serve-soak`
	// launches sentryd in the background and points us at it immediately.
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
		fatalf("health check against %s failed: %v", *url, err)
	}
	if uint64(*devices) > h.Logical {
		fatalf("-devices %d exceeds the fleet's %d logical devices", *devices, h.Logical)
	}

	if *soak {
		rep, err := fleet.SoakOn(c, fleet.SoakConfig{
			Devices: *devices, OpsPerDevice: *soakOps, Seed: *seed, Faults: *faults,
		})
		if err != nil {
			fatalf("%v", err)
		}
		out, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Println(string(out))
		if !rep.Passed() {
			fatalf("soak FAILED: %d problems, %d violations", len(rep.Problems), len(rep.Violations))
		}
		return
	}

	res := runOpenLoop(c, *devices, *seed, *rate, *duration, *workers, *timeout)
	res.print()

	run := &wallclock.Run{
		Parallelism: *workers,
		TotalSec:    res.elapsed.Seconds(),
		OpsPerSec:   res.achieved(),
	}
	if *wallOut != "" {
		if err := wallclock.Record(*wallOut, "serve", *seed, run); err != nil {
			fatalf("wallclock: %v", err)
		}
		fmt.Printf("wallclock: serve %.0f ops/s recorded to %s\n", run.OpsPerSec, *wallOut)
	}
	if *wallGuard != "" {
		msg, err := wallclock.Guard(*wallGuard, "serve", run)
		if err != nil {
			fatalf("wallclock-guard: %v", err)
		}
		fmt.Println("wallclock-guard:", msg)
	}
	if res.failed > res.done/100 {
		fatalf("%d of %d ops failed (>1%%)", res.failed, res.done)
	}
}

// loadResult collects one open-loop run. Latencies are scheduled-arrival to
// completion, in nanoseconds.
type loadResult struct {
	done     int
	failed   int
	byCode   map[string]int
	lat      []time.Duration
	elapsed  time.Duration
	overload int
}

func (r *loadResult) achieved() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.done-r.failed) / r.elapsed.Seconds()
}

// pct returns the p-th percentile of the sorted latency set.
func (r *loadResult) pct(p float64) time.Duration {
	if len(r.lat) == 0 {
		return 0
	}
	i := int(p * float64(len(r.lat)-1))
	return r.lat[i]
}

func (r *loadResult) print() {
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	fmt.Printf("ops        %d (%d failed", r.done, r.failed)
	if r.overload > 0 {
		fmt.Printf(", %d overload", r.overload)
	}
	fmt.Printf(")\nelapsed    %v\nthroughput %.0f ops/s\n", r.elapsed.Round(time.Millisecond), r.achieved())
	fmt.Printf("latency    p50=%v p90=%v p99=%v p999=%v max=%v\n",
		r.pct(0.50).Round(time.Microsecond), r.pct(0.90).Round(time.Microsecond),
		r.pct(0.99).Round(time.Microsecond), r.pct(0.999).Round(time.Microsecond),
		r.lat[len(r.lat)-1].Round(time.Microsecond))
	for _, code := range sortedKeys(r.byCode) {
		fmt.Printf("  code %-14s %d\n", code, r.byCode[code])
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runOpenLoop fires total = rate*duration ops at their scheduled arrival
// times. Every scheduled op is launched on time even when the server is
// slow; the worker semaphore only bounds sockets, and time spent waiting
// for a slot counts toward that op's latency.
func runOpenLoop(c *fleet.HTTPClient, devices int, seed int64, rate float64, duration time.Duration, workers int, timeout time.Duration) *loadResult {
	if rate <= 0 {
		fatalf("-rate must be positive")
	}
	total := int(rate * duration.Seconds())
	if total < 1 {
		total = 1
	}
	rng := sim.NewRNG(seed)
	type slot struct {
		id fleet.DeviceID
		op fleet.Op
	}
	plan := make([]slot, total)
	for i := range plan {
		plan[i] = slot{id: fleet.DeviceID(rng.Intn(devices)), op: genLoadOp(rng)}
	}

	res := &loadResult{byCode: make(map[string]int), lat: make([]time.Duration, total)}
	codes := make([]string, total)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := range plan {
		scheduled := start.Add(time.Duration(i) * interval)
		if d := time.Until(scheduled); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, scheduled time.Time) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			_, err := c.Do(ctx, plan[i].id, plan[i].op)
			cancel()
			res.lat[i] = time.Since(scheduled)
			codes[i] = fleet.ErrorCode(err)
		}(i, scheduled)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.done = total
	for _, code := range codes {
		res.byCode[code]++
		switch {
		case code == fleet.CodeOK, fleet.Refusal(code):
			// Domain outcomes are successful round trips: the server
			// correctly refused an op its device state forbids. Only
			// service-level errors count against the run.
		case code == fleet.CodeOverload:
			res.overload++
			res.failed++
		default:
			res.failed++
		}
	}
	return res
}

// genLoadOp draws from a read-heavy serving mix (no reboot drills — this
// measures the serving path, not the supervisor).
func genLoadOp(rng *sim.RNG) fleet.Op {
	r := rng.Intn(100)
	arg := uint64(rng.Intn(1 << 16))
	switch {
	case r < 10:
		return fleet.Op{Code: fleet.OpPing, Arg: arg, Prio: fleet.PrioLow}
	case r < 25:
		return fleet.Op{Code: fleet.OpLock, Arg: arg, Prio: fleet.PrioHigh}
	case r < 45:
		return fleet.Op{Code: fleet.OpUnlock, Arg: arg, Prio: fleet.PrioHigh}
	case r < 70:
		return fleet.Op{Code: fleet.OpTouch, Arg: arg, Prio: fleet.PrioNormal}
	case r < 85:
		return fleet.Op{Code: fleet.OpDiskWrite, Arg: arg, Prio: fleet.PrioNormal}
	default:
		return fleet.Op{Code: fleet.OpDiskRead, Arg: arg, Prio: fleet.PrioNormal}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sentryload: "+format+"\n", args...)
	os.Exit(1)
}
