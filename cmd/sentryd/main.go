// Command sentryd hosts a fleet of simulated Sentry devices — up to 10^5+
// logical devices in one process — behind the sharded service layer of
// internal/fleet: consistent-hash placement, a bounded LRU of resident
// actors with park-to-snapshot eviction, admission control, per-request
// deadlines, retry with deterministic backoff, per-device circuit breakers,
// panic isolation with supervised restarts, and graceful degradation under
// iRAM pressure.
//
// Usage:
//
//	sentryd -devices 100000 -resident-cap 4096        # serve until SIGINT/SIGTERM
//	sentryd -devices 32 -seed 1 -faults benign -soak -ops 300   # chaos soak, JSON report
//	sentryd -listen 127.0.0.1:8473                    # API/probe listen address
//
// Serve mode exposes the typed fleet API (driven by fleet.HTTPClient and
// cmd/sentryload):
//
//	POST /v1/devices/{id}/ops     — execute a batch of ops, JSON-typed results
//	GET  /v1/devices/{id}/ledger  — the device's sequence ledger
//	GET  /v1/devices/{id}/health  — one device's probe view
//	GET  /v1/health               — fleet-level probe summary
//
// plus the operational probes:
//
//	/healthz  — fleet health summary as JSON
//	/readyz   — 200 while the fleet can serve, 503 otherwise
//	/metrics  — the fleet metrics registry, one "name value" per line
//
// Soak mode runs the deterministic chaos soak and exits non-zero if any
// invariant (no lost/duplicated ops, no confidentiality violations, bounded
// retry amplification, traceable quarantines) failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sentry/internal/faults"
	"sentry/internal/fleet"
	"sentry/internal/sim"
)

// readHeaderTimeout stops a stalled client pinning a connection; on a
// keep-alive connection it starts only when the next request's bytes
// arrive. No IdleTimeout: closing an idle keep-alive connection fails the
// client's next POST, which Go's transport does not replay.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		devices     = flag.Int("devices", 8, "logical device population")
		seed        = flag.Int64("seed", 1, "fleet seed (devices, faults, jitter all derive from it)")
		faultStr    = flag.String("faults", "benign", "fault profile: none, benign, adversarial")
		shards      = flag.Int("shards", 8, "shard-manager count")
		residentCap = flag.Int("resident-cap", 0, "max resident (hydrated) devices; 0 = unbounded")
		maxInflight = flag.Int("max-inflight", 0, "admission-control token count; 0 = unbounded")
		squeeze     = flag.Int("squeeze-every", 0, "squeeze iRAM of every Nth device at boot; 0 = off")
		diskKB      = flag.Int("disk-kb", 64, "encrypted-disk size per device (KB)")
		soak        = flag.Bool("soak", false, "run the chaos soak, print the JSON report, and exit")
		soakOps     = flag.Int("ops", 300, "ops per device in -soak mode")
		listen      = flag.String("listen", "127.0.0.1:8473", "API/probe listen address (serve mode)")
		drive       = flag.Bool("drive", false, "drive a light synthetic load so probes have traffic (serve mode)")
	)
	flag.Parse()

	if *soak {
		rep, err := fleet.RunSoak(fleet.SoakConfig{
			Devices: *devices, OpsPerDevice: *soakOps, Seed: *seed, Faults: *faultStr,
			ResidentCap: *residentCap, Shards: *shards,
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

	prof, ok := faults.ByName(*faultStr)
	if !ok {
		fatalf("unknown fault profile %q", *faultStr)
	}
	f := fleet.Open(*devices,
		fleet.WithSeed(*seed),
		fleet.WithFaults(prof),
		fleet.WithShards(*shards),
		fleet.WithResidentCap(*residentCap),
		fleet.WithMaxInflight(*maxInflight),
		fleet.WithSqueezeEvery(*squeeze),
		fleet.WithDiskKB(*diskKB),
	)

	mux := http.NewServeMux()
	mux.Handle("/v1/", fleet.NewHandler(f))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h, _ := f.Health(r.Context())
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !f.Ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, f.Metrics().Dump())
	})
	srv := &http.Server{Addr: *listen, Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fatalf("listen %s: %v", *listen, err)
		}
	}()

	loadCtx, stopLoad := context.WithCancel(context.Background())
	if *drive {
		n := f.Devices()
		if n > 64 {
			n = 64 // synthetic load is a probe heartbeat, not a benchmark
		}
		for id := 0; id < n; id++ {
			go driveLoad(loadCtx, f, fleet.DeviceID(id), *seed)
		}
	}

	fmt.Printf("sentryd: %d logical devices (cap %d resident, %d shards), faults=%s, API on http://%s\n",
		*devices, *residentCap, *shards, *faultStr, *listen)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("sentryd: shutting down")

	stopLoad()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	f.Stop()
	fmt.Print(f.Metrics().Dump())
}

// driveLoad issues a modest op stream against one device until ctx ends.
func driveLoad(ctx context.Context, c fleet.Client, id fleet.DeviceID, seed int64) {
	rng := sim.NewRNG(seed + int64(id)*7919 + 1)
	cycle := []fleet.Op{
		{Code: fleet.OpTouch, Prio: fleet.PrioNormal},
		{Code: fleet.OpDiskWrite, Prio: fleet.PrioNormal},
		{Code: fleet.OpDiskRead, Prio: fleet.PrioNormal},
		{Code: fleet.OpLock, Prio: fleet.PrioHigh},
		{Code: fleet.OpBgBegin, Prio: fleet.PrioNormal},
		{Code: fleet.OpBgTouch, Prio: fleet.PrioNormal},
		{Code: fleet.OpUnlock, Prio: fleet.PrioHigh},
		{Code: fleet.OpPing, Prio: fleet.PrioLow},
	}
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return
		case <-time.After(200 * time.Millisecond):
		}
		op := cycle[i%len(cycle)]
		op.Arg = uint64(rng.Intn(1 << 16))
		opCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		c.Do(opCtx, id, op)
		cancel()
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sentryd: "+format+"\n", args...)
	os.Exit(1)
}
