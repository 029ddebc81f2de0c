package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sentry"
	"sentry/internal/blockdev"
	"sentry/internal/check"
	"sentry/internal/check/explore"
	"sentry/internal/core"
	"sentry/internal/fleet"
	"sentry/internal/mem"
	"sentry/internal/mmu"
	"sentry/internal/sim"
	"sentry/internal/snapshot"
)

// The traced run's layer probes. Each times calls into one layer's public
// functions from the benchmark's side, recording a span per call, and
// reports that layer's per-layer metrics from the spans. A probe fills only
// what the traced workload did not measure itself: the explorer and suite
// workloads report their own explore.* and bench.exp_s.* figures, the serve
// workloads their own loadgen.* figures.

const (
	benchPIN     = "4321"
	execPages    = 8   // pages in the probe device's sensitive process, as in a fleet device
	execSessions = 200 // sessions the exec probe runs
	snapRounds   = 40  // park/hydrate cycles the snapshot probe runs
	checkScheds  = 12  // schedules per platform the checker probe replays
	checkSteps   = 60
	fleetReqs    = 400 // requests per stream the in-process fleet probe sends
	httpReqs     = 600 // requests the HTTP probe sends
)

// execOps maps each serving op to the exec span that times it on the
// standalone device.
var execOps = map[string]string{
	"lock": "kernel.lock", "unlock": "kernel.unlock", "touch": "cpu.touch",
	"disk-write": "dmcrypt.write", "disk-read": "dmcrypt.read",
}

// checkOps are the checker op codes whose Apply is timed: the ten the
// defended adversary alphabet draws most often.
var checkOps = []string{
	"dfa-fault", "lock", "unlock", "fg-touch", "bg-touch",
	"free-page", "prime-probe", "evict-reload", "occupancy-probe", "dfa-collect",
}

func layerProbes(r *run, sh serveShape) error {
	execUs, err := probeExec(r)
	if err != nil {
		return fmt.Errorf("exec probe: %w", err)
	}
	parkUs, hydrateUs, err := probeSnapshot(r)
	if err != nil {
		return fmt.Errorf("snapshot probe: %w", err)
	}
	if err := probeFleet(r, sh, execUs, parkUs, hydrateUs); err != nil {
		return fmt.Errorf("fleet probe: %w", err)
	}
	probeCheck(r)
	if !r.has("explore.ops_per_sched") {
		t := exploreTrees()[0]
		sp := r.tr.open("explore.tree", 0, 0)
		res := t.run(runtime.NumCPU())
		r.tr.close(sp)
		setExploreRatios(r, []*explore.Result{res})
	}
	if !r.has("bench.exp_s.table2") {
		s, problems := runSuite(loadPins().Suite[0].Seed, r.tr, nil)
		for _, p := range problems {
			r.fail("%s", p)
		}
		setSuiteLayers(r, s)
	}
	return nil
}

// probeExec times the calls a serving session makes into the simulator on
// one standalone device, set up through the sentry facade the way the fleet
// sets up each device: a sensitive process whose pages hold a marker, AES On
// SoC registered with the kernel crypto API, and a dm-crypt volume. Its
// registry, wired through the bus and cache, counts the simulated work of
// each op; those counts repeat exactly for a seed. It returns the median
// time per serving op, in µs.
func probeExec(r *run) (map[string]float64, error) {
	d, err := sentry.Open(sentry.Tegra3, benchPIN, sentry.WithSeed(r.seed))
	if err != nil {
		return nil, err
	}
	reg := d.Metrics()
	d.SoC.Instrument(nil, reg)
	p := d.Kernel.NewProcess("bench", true, false)
	base, err := d.Kernel.MapAnon(p, execPages)
	if err != nil {
		return nil, err
	}
	marker := []byte("PERFBENCH-MARKER-0123456789")
	d.Kernel.Switch(p)
	for i := 0; i < execPages; i++ {
		if err := d.SoC.CPU.Store(base+mmu.VirtAddr(i*mem.PageSize), marker); err != nil {
			return nil, err
		}
	}
	d.RegisterOnSoC()
	key := bytes.Repeat([]byte{byte(r.seed) | 1}, 16)
	dm, _, err := d.NewEncryptedDisk(64<<10, key)
	if err != nil {
		return nil, err
	}

	busBytes := func() uint64 { return reg.CounterValue("bus.bytes_read") + reg.CounterValue("bus.bytes_wrote") }
	seals := reg.Histogram(core.MetricSealCycles, nil)
	hits0, miss0, seal0 := reg.CounterValue("cache.hits"), reg.CounterValue("cache.misses"), seals.Count()
	bus := map[string]uint64{}
	count := map[string]int{}
	var req uint64
	timed := func(op string, fn func() error) error {
		b := busBytes()
		sp := r.tr.open(execOps[op], 0, req)
		err := fn()
		r.tr.close(sp)
		bus[op] += busBytes() - b
		count[op]++
		return err
	}
	rng := sim.NewRNG(r.seed)
	written := map[uint64][]byte{}
	got := make([]byte, len(marker))
	for i := 0; i < execSessions; i++ {
		req = uint64(i + 1)
		if err := timed("unlock", func() error { return d.Unlock(benchPIN) }); err != nil {
			return nil, err
		}
		for j := 0; j < 2; j++ {
			va := base + mmu.VirtAddr(rng.Intn(execPages)*mem.PageSize)
			if err := timed("touch", func() error { d.Kernel.Switch(p); return d.SoC.CPU.Load(va, got) }); err != nil {
				return nil, err
			}
			if !bytes.Equal(got, marker) {
				return nil, fmt.Errorf("page at %#x lost its marker", va)
			}
		}
		for j := 0; j < 4; j++ {
			sec := uint64(rng.Intn(int(dm.Sectors())))
			buf := make([]byte, blockdev.SectorSize)
			rng.Read(buf)
			if err := timed("disk-write", func() error { return dm.WriteSector(sec, buf) }); err != nil {
				return nil, err
			}
			written[sec] = buf
		}
		for j := 0; j < 2; j++ {
			sec := uint64(rng.Intn(int(dm.Sectors())))
			buf := make([]byte, blockdev.SectorSize)
			if err := timed("disk-read", func() error { return dm.ReadSector(sec, buf) }); err != nil {
				return nil, err
			}
			if want, ok := written[sec]; ok && !bytes.Equal(buf, want) {
				return nil, fmt.Errorf("sector %d read back wrong", sec)
			}
		}
		if err := timed("lock", func() error { d.Lock(); return nil }); err != nil {
			return nil, err
		}
	}
	hits, misses := reg.CounterValue("cache.hits")-hits0, reg.CounterValue("cache.misses")-miss0
	r.set("sim.cache_miss_frac", float64(misses)/float64(hits+misses))
	r.set("sim.pages_sealed_per_lock", float64(seals.Count()-seal0)/float64(count["lock"]))
	us := map[string]float64{}
	for op, layer := range execOps {
		r.set("sim.bus_bytes_per_op."+op, float64(bus[op])/float64(count[op]))
		us[op] = median(r.tr.durations(layer))
		r.set(layer+"_us", us[op])
	}
	return us, nil
}

// probeSnapshot parks used devices as deltas against a frozen base and
// hydrates them again — the fleet's eviction path, called directly.
func probeSnapshot(r *run) (parkUs, hydrateUs float64, err error) {
	base, err := sentry.Open(sentry.Tegra3, benchPIN, sentry.WithSeed(r.seed))
	if err != nil {
		return 0, 0, err
	}
	base.FreezeBase()
	var parked int64
	for i := 0; i < snapRounds; i++ {
		d := base.Fork()
		p := d.Kernel.NewProcess("bench", true, false)
		va, err := d.Kernel.MapAnon(p, execPages)
		if err != nil {
			return 0, 0, err
		}
		d.Kernel.Switch(p)
		for pg := 0; pg < execPages; pg++ {
			if err := d.SoC.CPU.Store(va+mmu.VirtAddr(pg*mem.PageSize), []byte{byte(i), byte(pg)}); err != nil {
				return 0, 0, err
			}
		}
		d.Lock()
		if err := d.Unlock(benchPIN); err != nil {
			return 0, 0, err
		}
		sp := r.tr.open("snapshot.park", 0, uint64(i+1))
		snap, n := snapshot.CaptureDelta[*sentry.Device, *sentry.Device](d, base)
		r.tr.close(sp)
		parked += n
		sp = r.tr.open("snapshot.hydrate", 0, uint64(i+1))
		h := snap.ForkFromDelta()
		r.tr.close(sp)
		h.SoC.Release()
	}
	parkUs, hydrateUs = median(r.tr.durations("snapshot.park")), median(r.tr.durations("snapshot.hydrate"))
	r.set("snapshot.park_us", parkUs)
	r.set("snapshot.hydrate_us", hydrateUs)
	r.set("snapshot.parked_bytes_per_device", float64(parked)/snapRounds)
	return parkUs, hydrateUs, nil
}

// probeFleet drives an in-process fleet with the workload's request shape:
// first through Fleet.Do directly, timing each op and reading the fleet's
// own registry, then over loopback HTTP with fleet.NewHandler behind a
// timing wrapper, so a round trip splits into handler and transport time.
func probeFleet(r *run, sh serveShape, execUs map[string]float64, parkUs, hydrateUs float64) error {
	f := fleet.Open(sh.devices, fleet.WithSeed(r.seed), fleet.WithResidentCap(sh.residentCap))
	defer f.Close()
	g := &loadgen{shape: sh, seed: r.seed}
	streams := min(runtime.NumCPU(), sh.devices)
	g.clients = make([]*fleet.HTTPClient, streams) // sizes the plan; Do bypasses them
	ctx := context.Background()
	for id := 0; id < sh.devices; id++ {
		if _, err := f.Do(ctx, fleet.DeviceID(id), fleet.Op{Code: fleet.OpPing, Prio: fleet.PrioLow}); err != nil {
			return fmt.Errorf("boot device %d: %w", id, err)
		}
	}

	reg := f.Metrics()
	names := []string{fleet.MetricExecs, fleet.MetricRetries, fleet.MetricHydrations, fleet.MetricParks, fleet.MetricSheds, fleet.MetricOverloads}
	snap := func() map[string]float64 {
		m := map[string]float64{}
		for _, n := range names {
			m[n] = float64(reg.CounterValue(n))
		}
		return m
	}
	before := snap()
	opCount := make([]map[string]int, streams)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			opCount[s] = map[string]int{}
			plan := g.plan(1000, s, fleetReqs)
			for i, req := range plan {
				// Every shape also pings, so each serving op has a Do time.
				if i%10 == 0 {
					req.ops = append([]fleet.Op{{Code: fleet.OpPing, Prio: fleet.PrioLow}}, req.ops...)
				}
				id := uint64(s*fleetReqs + i + 1)
				rs := r.tr.open("fleet.request", 0, id)
				for _, op := range req.ops {
					sp := r.tr.open("fleet.do."+op.Code.String(), rs.id, id)
					_, err := f.Do(ctx, req.dev, op)
					r.tr.close(sp)
					switch c := fleet.ErrorCode(err); c {
					case fleet.CodeOK, fleet.CodeBadPIN, fleet.CodeLocked:
					default:
						errs[s] = fmt.Errorf("%s on device %d: %w", op.Code, req.dev, err)
					}
					opCount[s][op.Code.String()]++
				}
				r.tr.close(rs)
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			r.fail("in-process fleet: %v", err)
		}
	}
	after := snap()
	counts := map[string]int{}
	total := 0
	for _, m := range opCount {
		for op, n := range m {
			counts[op] += n
			total += n
		}
	}
	per := func(n string) float64 { return (after[n] - before[n]) / float64(total) }
	r.set("fleet.execs_per_op", per(fleet.MetricExecs))
	r.set("fleet.retries_per_op", per(fleet.MetricRetries))
	r.set("fleet.hydrations_per_op", per(fleet.MetricHydrations))
	r.set("fleet.parks_per_op", per(fleet.MetricParks))
	r.set("fleet.sheds", after[fleet.MetricSheds]-before[fleet.MetricSheds])
	r.set("fleet.overloads", after[fleet.MetricOverloads]-before[fleet.MetricOverloads])
	// wait_us: the mean Do time not covered by the exec the op runs, the
	// hydrations and the parks it causes, each at its probe's median.
	var doSum, execSum float64
	for _, op := range []string{"ping", "lock", "unlock", "touch", "disk-write", "disk-read"} {
		us := median(r.tr.durations("fleet.do." + op))
		r.set("fleet.do_us."+op, us)
		doSum += us * float64(counts[op])
		execSum += execUs[op] * float64(counts[op])
	}
	r.set("fleet.wait_us", (doSum-execSum)/float64(total)-
		per(fleet.MetricHydrations)*hydrateUs-per(fleet.MetricParks)*parkUs)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := fleet.NewHandler(f)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
		sp := r.tr.open("http.handler", parent, 0)
		h.ServeHTTP(w, req)
		r.tr.close(sp)
	})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	lg := newLoadgen("http://"+ln.Addr().String(), sh, r.seed, "http")
	lg.tr = r.tr
	ph := lg.run("http", 2000, sh.rate, httpReqs, fixedBacklog)
	lg.close()
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-served; err != http.ErrServerClosed {
		return err
	}
	ph.print()
	r.attempted += ph.attempted
	r.failed += ph.failed
	if ph.failed > 0 {
		r.fail("HTTP probe: %d of %d ops failed (%s)", ph.failed, ph.attempted, ph.codeList())
	}
	spans := r.tr.byID()
	var rtt, handler, transport []float64
	for _, s := range spans {
		switch s.Name {
		case "http.rtt":
			rtt = append(rtt, float64(s.End-s.Start)/1e3)
		case "http.handler":
			handler = append(handler, float64(s.End-s.Start)/1e3)
			if p, ok := spans[s.Parent]; ok {
				transport = append(transport, float64((p.End-p.Start)-(s.End-s.Start))/1e3)
			}
		}
	}
	r.set("http.rtt_us", median(rtt))
	r.set("http.handler_us", median(handler))
	r.set("http.transport_us", median(transport))
	if !r.has("loadgen.lag_p99_ms") {
		r.setLoadgen(ph)
	}
	return nil
}

// probeCheck replays a fixed sample of generated schedules on each
// platform, timing every World.Apply by op code and a World.Fork every
// eighth op.
func probeCheck(r *run) {
	for _, plat := range explorePlatforms {
		cfg := exploreConfig(plat)
		boot := snapshot.Capture(check.NewWorld(cfg, 1))
		for s := int64(1); s <= checkScheds; s++ {
			sched := check.GenerateFor(cfg, sim.NewRNG(s), checkSteps)
			w := boot.Fork()
			for i, op := range sched {
				if w.Dead() {
					break
				}
				sp := r.tr.open("check.apply."+op.Code.String(), 0, uint64(s))
				w.Apply(op)
				r.tr.close(sp)
				if i%8 == 7 && !w.Dead() {
					sp := r.tr.open("check.fork", 0, uint64(s))
					fw := w.Fork()
					r.tr.close(sp)
					fw.Release()
				}
			}
			w.Release()
		}
	}
	for _, op := range checkOps {
		d := r.tr.durations("check.apply." + op)
		if len(d) == 0 {
			r.fail("checker probe: the schedule sample never applied %s", op)
			d = []float64{0}
		}
		r.set("check.apply_us."+op, median(d))
	}
	r.set("check.fork_us", median(r.tr.durations("check.fork")))
}
