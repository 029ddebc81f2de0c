package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sentry/internal/fleet"
	"sentry/internal/sim"
)

// serveShape is one serving workload: the sentryd configuration, what one
// request carries, and the fixed offered rate its latency is reported at.
type serveShape struct {
	devices     int     // requests spread uniformly over devices [0, devices)
	residentCap int     // sentryd -resident-cap
	session     bool    // a request is one device session batch, else one op
	rate        float64 // fixed offered rate for p50/p99, requests/s
}

// serveShapes: serve-churn spreads single ops over four devices per
// resident seat, so about three requests in four hydrate a parked device
// and park an evictee. serve-session keeps its whole device set resident
// (each of sentryd's 8 shards gets 32 seats, more than the 32 devices), so
// no request parks or hydrates.
var serveShapes = map[string]serveShape{
	"serve-churn":   {devices: 256, residentCap: 64, rate: 600},
	"serve-session": {devices: 32, residentCap: 256, session: true, rate: 1000},
}

const (
	sloMs      = 50.0 // the p99 latency limit the capacity search holds
	lagLimitMs = 10.0 // generator lateness (p99) beyond which a phase is invalid
	reqTimeout = 10 * time.Second
	// fixedBacklog bounds how far the fixed-rate phase may fall behind its
	// schedule before it is abandoned as unsustainable.
	fixedBacklog = 5 * time.Second
	// probeBacklog marks a capacity probe as a growing backlog.
	probeBacklog = time.Second
	spanHeader   = "X-Perfbench-Span"
)

// serveWorkload drives sentryd over loopback HTTP: repeated set-ups (start,
// boot every device, warm up), then an open-loop phase at the shape's fixed
// rate for p50/p99, then a rate search for capacity, then the ledger audit.
func serveWorkload(r *run) error {
	sh := serveShapes[r.workload]
	// Collect the generator's garbage less often: its pauses would land in
	// the latencies it measures.
	debug.SetGCPercent(400)
	var (
		srv *server
		g   *loadgen
	)
	err := r.setup(fmt.Sprintf("start sentryd (%d devices, resident cap %d), boot every device, warm up", sh.devices, sh.residentCap),
		func() {
			if srv != nil {
				g.close()
				srv.stop()
			}
		}, func() error {
			var err error
			if srv, err = startServer(r.bin, sh, r.seed); err != nil {
				return err
			}
			g = newLoadgen(srv.url, sh, r.seed, "serve")
			return g.warm()
		})
	if err != nil {
		return err
	}
	defer srv.stop()
	defer g.close()
	if r.tr != nil {
		return serveTraced(r, sh, srv, g)
	}

	before, err := srv.counters()
	if err != nil {
		return err
	}
	fixed := g.run("fixed", 0, sh.rate, max(window, int(sh.rate*r.seconds*0.45)), fixedBacklog)
	fixed.print()
	mid, err := srv.counters()
	if err != nil {
		return err
	}
	capRate, probes := g.capacity(r, fixed, time.Duration(r.seconds*0.5*float64(time.Second)))
	after, err := srv.counters()
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}

	for _, p := range append([]*phase{fixed}, probes...) {
		r.attempted += p.attempted
		r.failed += p.failed
		if sh.session && p.notOK > 0 {
			r.fail("%s: %d session ops were not domain successes (%s)", p.name, p.notOK, p.codeList())
		}
	}
	r.checkFixed(fixed)
	ops := float64(fixed.attempted)
	delta := func(a, b map[string]float64, name string) float64 { return b[name] - a[name] }
	hydr := delta(before, mid, fleet.MetricHydrations) / ops
	fmt.Printf("fixed phase, from sentryd's registry: fleet.execs_per_op %.3f fleet.retries_per_op %.3f fleet.hydrations_per_op %.3f fleet.parks_per_op %.3f\n",
		delta(before, mid, fleet.MetricExecs)/ops, delta(before, mid, fleet.MetricRetries)/ops,
		hydr, delta(before, mid, fleet.MetricParks)/ops)
	if sh.session {
		if h, p := delta(before, after, fleet.MetricHydrations), delta(before, after, fleet.MetricParks); h != 0 || p != 0 {
			r.fail("serve-session hydrated %v and parked %v devices in the timed window; its set must stay resident", h, p)
		}
	} else if hydr < 0.5 {
		r.fail("serve-churn hydrated only %.3f devices per op; the workload must churn residency", hydr)
	}
	g.checkLedgers(r)

	unit := "ops"
	if sh.session {
		unit = "sessions"
	}
	fmt.Printf("capacity_%s_s %.1f (highest offered rate with p99 <= %.0f ms, <=1%% failed, no growing backlog; %d probes)\n",
		unit, capRate, sloMs, len(probes))
	q := fixed.quiet()
	fmt.Printf("p50_ms: median of n=%d requests at %.0f %s/s offered; p99_ms: median p99 of their %d windows of %d (of %d windows, the ones steal left undisturbed or the quietest half)\n",
		len(q.lat), sh.rate, unit, len(q.p99s), window, q.windows)
	r.set("p50_ms", median(q.lat))
	r.set("p99_ms", median(q.p99s))
	r.set("throughput_per_s", capRate)
	r.set("peak_rss_mb", rss)
	return nil
}

// checkFixed holds the fixed-rate phase to the conditions under which its
// latencies mean anything.
func (r *run) checkFixed(p *phase) {
	q := p.quiet()
	switch {
	case p.aborted:
		r.fail("%s: the server fell %v behind the offered rate", p.name, fixedBacklog)
	case len(p.reqs) < window:
		r.fail("%s: %d samples leave fewer than 10 beyond p99", p.name, len(p.reqs))
	case quantile(q.lag, 0.99) > lagLimitMs:
		r.fail("%s: invalid run, the generator itself fell behind (lag p99 %.2f ms > %.0f ms in undisturbed windows)", p.name, quantile(q.lag, 0.99), lagLimitMs)
	case p.failed*100 > p.attempted:
		r.fail("%s: %d of %d ops failed (%s)", p.name, p.failed, p.attempted, p.codeList())
	}
}

// serveTraced measures the same fixed-rate plan untraced and then traced,
// reports the difference as the tracing overhead, and runs the layer
// probes with the workload's shape.
func serveTraced(r *run, sh serveShape, srv *server, g *loadgen) error {
	n := max(window, int(sh.rate*r.seconds*0.25))
	u := g.run("untraced", 0, sh.rate, n, fixedBacklog)
	u.print()
	g.tr = r.tr
	t := g.run("traced", 0, sh.rate, n, fixedBacklog)
	g.tr = nil
	t.print()
	for _, p := range []*phase{u, t} {
		r.attempted += p.attempted
		r.failed += p.failed
		r.checkFixed(p)
	}
	g.checkLedgers(r)
	r.set("trace.overhead_frac", median(t.quiet().lat)/median(u.quiet().lat)-1)
	r.setLoadgen(t)
	g.close()
	srv.stop()
	return layerProbes(r, sh)
}

func (r *run) setLoadgen(p *phase) {
	q := p.quiet()
	r.set("loadgen.lag_p99_ms", quantile(q.lag, 0.99))
	r.set("loadgen.slot_wait_p99_ms", quantile(q.slotWait, 0.99))
	r.set("loadgen.inflight_max", float64(p.inflightMax))
}

// children are the processes this run started (sentryd, the host probe);
// every exit path stops them.
var children struct {
	sync.Mutex
	list []interface{ stop() }
}

func addChild(c interface{ stop() }) {
	children.Lock()
	children.list = append(children.list, c)
	children.Unlock()
}

func stopChildren() {
	children.Lock()
	list := children.list
	children.list = nil
	children.Unlock()
	for _, c := range list {
		c.stop()
	}
}

// server is one sentryd process.
type server struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
	once   sync.Once
}

func startServer(bin string, sh serveShape, seed int64) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(filepath.Join(bin, "sentryd"),
		"-devices", strconv.Itoa(sh.devices), "-resident-cap", strconv.Itoa(sh.residentCap),
		"-faults", "none", "-seed", strconv.FormatInt(seed, 10), "-listen", addr)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sentryd: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	addChild(s)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("sentryd exited before it was ready")
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("sentryd not ready after 10s: %v", err)
		}
	}
}

// stop shuts sentryd down and waits for it to exit. Idempotent.
func (s *server) stop() {
	s.once.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
	})
}

// counters scrapes sentryd's /metrics ("name value" lines).
func (s *server) counters() (map[string]float64, error) {
	resp, err := http.Get(s.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				m[f[0]] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return m, nil
}

// request is one HTTP request of a plan: a batch of ops for one device.
type request struct {
	dev fleet.DeviceID
	ops []fleet.Op
}

// loadgen sends open-loop traffic from one stream per CPU, each stream with
// its own connection, so no more than nproc requests are ever in flight and
// the numbers measure the server, not the scheduler. Streams own disjoint
// device sets (id % streams == stream): requests to one device never
// overlap, so a session's ops find the device as the session left it.
type loadgen struct {
	shape   serveShape
	seed    int64
	name    string // span prefix
	clients []*fleet.HTTPClient
	tr      *tracer
	reqs    atomic.Uint64
	okByDev []map[fleet.DeviceID]int  // per stream: ledgered successes the client saw
	unsure  []map[fleet.DeviceID]bool // per stream: devices with an unknown outcome
}

func newLoadgen(url string, sh serveShape, seed int64, name string) *loadgen {
	streams := min(runtime.NumCPU(), sh.devices)
	g := &loadgen{shape: sh, seed: seed, name: name}
	for s := 0; s < streams; s++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		g.clients = append(g.clients, fleet.NewHTTPClient(url, &http.Client{Transport: &spanTransport{tr}}))
		g.okByDev = append(g.okByDev, map[fleet.DeviceID]int{})
		g.unsure = append(g.unsure, map[fleet.DeviceID]bool{})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.Close()
	}
}

type spanKey struct{}

// spanTransport passes the client span's ID to a traced server in a header,
// so the server-side span can name its parent.
type spanTransport struct{ base *http.Transport }

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(uint64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	return t.base.RoundTrip(req)
}

func (t *spanTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

// plan draws n requests for one stream. salt separates a run's phases; the
// same (seed, salt, stream) always gives the same requests.
func (g *loadgen) plan(salt int64, stream, n int) []request {
	streams := len(g.clients)
	own := (g.shape.devices - stream + streams - 1) / streams
	rng := sim.NewRNG(g.seed*1000003 + salt*7919 + int64(stream) + 1)
	out := make([]request, n)
	for i := range out {
		id := fleet.DeviceID(stream + streams*rng.Intn(own))
		if g.shape.session {
			out[i] = request{id, sessionOps(rng)}
		} else {
			out[i] = request{id, []fleet.Op{churnOp(rng)}}
		}
	}
	return out
}

// churnOp draws from sentryload's read-heavy serving mix.
func churnOp(rng *sim.RNG) fleet.Op {
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

// sessionOps is one write-heavy device session: unlock, two touches, four
// disk writes, two disk reads, lock.
func sessionOps(rng *sim.RNG) []fleet.Op {
	op := func(c fleet.OpCode, prio int) fleet.Op {
		return fleet.Op{Code: c, Arg: uint64(rng.Intn(1 << 16)), Prio: prio}
	}
	ops := []fleet.Op{op(fleet.OpUnlock, fleet.PrioHigh)}
	for i := 0; i < 2; i++ {
		ops = append(ops, op(fleet.OpTouch, fleet.PrioNormal))
	}
	for i := 0; i < 4; i++ {
		ops = append(ops, op(fleet.OpDiskWrite, fleet.PrioNormal))
	}
	for i := 0; i < 2; i++ {
		ops = append(ops, op(fleet.OpDiskRead, fleet.PrioNormal))
	}
	return append(ops, op(fleet.OpLock, fleet.PrioHigh))
}

// warm boots every device with closed-loop requests: a ping each for churn
// (the devices then park down to the resident cap), two sessions each for
// session (so every device has unlocked, written its disk and locked).
func (g *loadgen) warm() error {
	streams := len(g.clients)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := sim.NewRNG(g.seed + int64(s))
			rounds := 1
			if g.shape.session {
				rounds = 2
			}
			for round := 0; round < rounds; round++ {
				for id := s; id < g.shape.devices; id += streams {
					req := request{dev: fleet.DeviceID(id), ops: []fleet.Op{{Code: fleet.OpPing, Prio: fleet.PrioLow}}}
					if g.shape.session {
						req.ops = sessionOps(rng)
					}
					codes := g.send(s, req, time.Now())
					if failed, notOK := g.tally(s, req, codes); failed > 0 || (g.shape.session && notOK > 0) {
						errs[s] = fmt.Errorf("warm-up request to device %d: %v", id, codes)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// send issues one request and returns each op's outcome code; a
// request-level error (transport, overload, shutdown) is every op's code.
func (g *loadgen) send(s int, req request, due time.Time) []string {
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	id := g.reqs.Add(1)
	outer := g.tr.open(g.name+".request", 0, id)
	outer.start = due
	inner := g.tr.open(g.name+".rtt", outer.id, id)
	if g.tr != nil {
		ctx = context.WithValue(ctx, spanKey{}, inner.id)
	}
	res, err := g.clients[s].DoBatch(ctx, req.dev, req.ops)
	g.tr.close(inner)
	g.tr.close(outer)
	codes := make([]string, len(req.ops))
	for i := range codes {
		if err != nil {
			codes[i] = fleet.ErrorCode(err)
		} else {
			codes[i] = res[i].Code
		}
	}
	if err != nil {
		g.unsure[s][req.dev] = true
	}
	return codes
}

// tally books a request's outcomes: ok, bad_pin and locked are successes
// (domain outcomes of a healthy round trip); every other code — overload,
// shed, deadline, circuit_open, quarantined, restarted, other, transport
// errors — is a failure. sentryd's fleet.ops_failed counts the domain
// outcomes as failures, so it is never read.
func (g *loadgen) tally(s int, req request, codes []string) (failed, notOK int) {
	for i, code := range codes {
		switch code {
		case fleet.CodeOK:
			if req.ops[i].Code != fleet.OpPing {
				g.okByDev[s][req.dev]++
			}
		case fleet.CodeBadPIN, fleet.CodeLocked:
		default:
			failed++
		}
		if code != fleet.CodeOK {
			notOK++
		}
	}
	return failed, notOK
}

// sample is one sent request of a phase.
type sample struct {
	order  int     // the request's index in the schedule
	lat    float64 // ms from its due time (its send time on an idle stream) to its reply
	late   float64 // ms it was sent after its due time
	idle   bool    // its stream was idle at the due time, so late is the generator's own lateness, not a wait for the connection
	failed bool    // an op failed: the request misses any latency limit
}

// phase is the outcome of one open-loop run at a fixed offered rate.
type phase struct {
	name        string
	rate        float64
	planned     int // requests scheduled
	t0          time.Time
	reqs        []sample    // in schedule order
	marks       []stealMark // the steal counter, sampled while the phase ran
	attempted   int         // ops sent
	failed      int         // ops that failed
	notOK       int         // ops whose code was not ok
	codes       map[string]int
	inflightMax int64
	aborted     bool // the backlog passed its limit: the offered rate was not sustained
	elapsed     time.Duration
}

// window is the number of requests over which a phase's p99 is taken: each
// window leaves 10 samples beyond its p99.
const window = 1000

// quietPart is the part of a phase that steal left undisturbed.
type quietPart struct {
	lat, lag, slotWait []float64
	p99s               []float64 // each kept window's p99
	windows            int       // windows in the phase
}

// quiet splits the phase, in schedule order, into windows of 1000 requests
// and keeps those steal left undisturbed, or the quietest half. A window's
// steal share is taken over the span its requests were due in.
func (p *phase) quiet() quietPart {
	size := window
	if len(p.reqs) < window { // a short probe is one window
		size = len(p.reqs)
	}
	var shares []float64
	for i := 0; size > 0 && i+size <= len(p.reqs); i += size {
		t0 := p.t0.Add(time.Duration(float64(p.reqs[i].order) / p.rate * float64(time.Second)))
		t1 := p.t0.Add(time.Duration(float64(p.reqs[i+size-1].order+1) / p.rate * float64(time.Second)))
		shares = append(shares, shareIn(p.marks, t0, t1))
	}
	q := quietPart{windows: len(shares)}
	for _, w := range quietest(shares) {
		var lat []float64
		for _, s := range p.reqs[w*size : (w+1)*size] {
			lat = append(lat, s.lat)
			if s.idle {
				q.lag = append(q.lag, s.late)
			} else {
				q.slotWait = append(q.slotWait, s.late)
			}
		}
		q.lat = append(q.lat, lat...)
		q.p99s = append(q.p99s, quantile(lat, 0.99))
	}
	return q
}

// lats returns every request's latency; a failed request's is +Inf when
// failedInf is set.
func (p *phase) lats(failedInf bool) []float64 {
	out := make([]float64, len(p.reqs))
	for i, s := range p.reqs {
		out[i] = s.lat
		if failedInf && s.failed {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// lags returns the generator's lateness on idle streams (idle is true) or
// the waits for a busy stream's connection (idle is false).
func (p *phase) lags(idle bool) []float64 {
	var out []float64
	for _, s := range p.reqs {
		if s.idle == idle {
			out = append(out, s.late)
		}
	}
	return out
}

// run sends n requests of plan salt open-loop at rate (request k is due at
// t0 + k/rate, whatever the server does) and times each from its due time.
// It stops sending once a due request is backlog late.
func (g *loadgen) run(name string, salt int64, rate float64, n int, backlog time.Duration) *phase {
	streams := len(g.clients)
	parts := make([]phase, streams)
	var inflight, inflightMax atomic.Int64
	var abort atomic.Bool
	interval := float64(time.Second) / rate
	sampler := startStealSampler()
	t0 := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		plan := g.plan(salt, s, (n-s+streams-1)/streams)
		wg.Add(1)
		go func(s int, plan []request) {
			defer wg.Done()
			p := &parts[s]
			p.codes = map[string]int{}
			for j, req := range plan {
				due := t0.Add(time.Duration(float64(s+j*streams) * interval))
				now := time.Now()
				idle := now.Before(due)
				if idle {
					time.Sleep(due.Sub(now))
				} else if now.Sub(due) > backlog {
					abort.Store(true)
				}
				if abort.Load() {
					return
				}
				start := time.Now()
				cur := inflight.Add(1)
				for m := inflightMax.Load(); cur > m && !inflightMax.CompareAndSwap(m, cur); m = inflightMax.Load() {
				}
				codes := g.send(s, req, due)
				inflight.Add(-1)
				// Latency runs from the due time, so waiting for a busy
				// connection counts; the generator's own wake-up lateness
				// on an idle stream does not (it is reported as lag).
				from := due
				if idle {
					from = start
				}
				failed, notOK := g.tally(s, req, codes)
				p.reqs = append(p.reqs, sample{order: s + j*streams, lat: ms(time.Since(from)),
					late: ms(start.Sub(due)), idle: idle, failed: failed > 0})
				p.attempted += len(codes)
				p.failed += failed
				p.notOK += notOK
				for _, c := range codes {
					p.codes[c]++
				}
			}
		}(s, plan)
	}
	wg.Wait()
	out := &phase{name: name, rate: rate, planned: n, t0: t0, marks: sampler.finish(), codes: map[string]int{},
		inflightMax: inflightMax.Load(), aborted: abort.Load(), elapsed: time.Since(t0)}
	for _, p := range parts {
		out.reqs = append(out.reqs, p.reqs...)
		out.attempted += p.attempted
		out.failed += p.failed
		out.notOK += p.notOK
		for c, k := range p.codes {
			out.codes[c] += k
		}
	}
	sort.Slice(out.reqs, func(a, b int) bool { return out.reqs[a].order < out.reqs[b].order })
	return out
}

// sloP99 is the p99 with every failed request counted as missing the limit.
func (p *phase) sloP99() float64 { return quantile(p.lats(true), 0.99) }

// meetsSLO reports whether the phase sustained its rate within the limits
// capacity is defined by, and if not, why.
func (p *phase) meetsSLO() (bool, string) {
	switch {
	case p.aborted:
		return false, "growing backlog"
	case len(p.reqs) < window:
		return false, "fewer than 1000 samples"
	case p.failed*100 > p.attempted:
		return false, ">1% failed"
	case quantile(p.lags(true), 0.99) > lagLimitMs:
		return false, "generator lagged"
	case p.sloP99() > sloMs:
		return false, "p99 over limit"
	}
	return true, "meets"
}

func (p *phase) codeList() string {
	keys := make([]string, 0, len(p.codes))
	for k := range p.codes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, p.codes[k])
	}
	return strings.Join(parts, " ")
}

func (p *phase) print() {
	lat, lag, wait := p.lats(false), p.lags(true), p.lags(false)
	fmt.Printf("phase %-9s offered %7.1f req/s: sent %d of %d requests in %.2fs; ops attempted %d, succeeded %d, failed %d [%s]\n",
		p.name, p.rate, len(lat), p.planned, p.elapsed.Seconds(), p.attempted, p.attempted-p.failed, p.failed, p.codeList())
	fmt.Printf("  latency p50 %.3f ms p99 %.3f ms (n=%d); generator lag p50 %.3f p99 %.3f ms (n=%d); slot wait p99 %.3f ms (n=%d); in flight max %d; steal %.1f%%\n",
		median(lat), quantile(lat, 0.99), len(lat), median(lag), quantile(lag, 0.99), len(lag),
		quantile(wait, 0.99), len(wait), p.inflightMax, 100*shareBetween(p.marks[0], p.marks[len(p.marks)-1]))
}

// capacity climbs a geometric ladder of offered rates from twice the fixed
// rate until a probe's p99 passes twice the limit, a probe fails for
// another reason, or the budget ends, and climbs it again while another
// climb like the last would end within the budget. Capacity is where log p99
// crosses the limit on a Theil-Sen line through the probes of every climb
// whose p99 is at least a quarter of the limit. Fitting many probes, rather
// than bisecting on one noisy pass/fail, keeps the figure steady from run to
// run and lets it vary smoothly. The fixed-rate phase stays out of the fit:
// on a quiet host its p99 is below a quarter of the limit anyway, and a
// burst of steal during it put a point far above the probes' line.
func (g *loadgen) capacity(r *run, fixed *phase, budget time.Duration) (float64, []*phase) {
	const step = 1.1
	deadline := time.Now().Add(budget)
	var ladder, probes []*phase
	var last time.Duration
	for climb := 1; climb == 1 || time.Now().Add(last).Before(deadline); climb++ {
		c0 := time.Now()
		for rate, k := fixed.rate*2, 1; time.Now().Before(deadline); rate, k = rate*step, k+1 {
			time.Sleep(100 * time.Millisecond) // let the server drain between probes
			var p *phase
			name := fmt.Sprintf("probe-%d.%d", climb, k)
			r.quietly("capacity "+name, 3, func() {
				p = g.run(name, int64(100*climb+k), rate, max(window, int(rate)), probeBacklog)
				probes = append(probes, p) // every try counts its ops; the ladder keeps the last
			})
			ladder = append(ladder, p)
			ok, why := p.meetsSLO()
			fmt.Printf("capacity %-10s offered %7.1f req/s, p99 %.2f ms, generator lag p99 %.2f ms, %s\n",
				name, rate, quantile(p.lats(false), 0.99), quantile(p.lags(true), 0.99), why)
			if !ok && (why != "p99 over limit" || p.sloP99() > 2*sloMs) {
				break
			}
		}
		last = time.Since(c0)
	}
	if len(ladder) == 0 {
		return fixed.rate, probes
	}
	sort.SliceStable(ladder, func(a, b int) bool { return ladder[a].rate < ladder[b].rate })
	var xs, ys []float64
	for _, p := range ladder {
		if v := p.fitP99(); v >= sloMs/4 {
			xs, ys = append(xs, p.rate), append(ys, math.Log(v))
		}
	}
	if len(xs) < 2 { // the ladder never neared the limit: fit its top two probes
		xs, ys = nil, nil
		for _, p := range ladder[max(0, len(ladder)-2):] {
			xs, ys = append(xs, p.rate), append(ys, math.Log(p.fitP99()))
		}
	}
	top := ladder[len(ladder)-1].rate
	// Theil-Sen: the median pairwise slope, robust to a few disturbed probes.
	var slopes []float64
	for a := range xs {
		for b := a + 1; b < len(xs); b++ {
			if xs[b] != xs[a] {
				slopes = append(slopes, (ys[b]-ys[a])/(xs[b]-xs[a]))
			}
		}
	}
	if len(slopes) == 0 {
		return top, probes
	}
	slope := median(slopes)
	if slope <= 0 {
		return top, probes
	}
	icepts := make([]float64, len(xs))
	for k := range xs {
		icepts[k] = ys[k] - slope*xs[k]
	}
	return min(top*step, max(fixed.rate/2, (math.Log(sloMs)-median(icepts))/slope)), probes
}

// fitP99 is the p99 the capacity fit uses: a probe that missed for another
// reason than latency (failures, a growing backlog, a lagging generator)
// counts as at least twice the limit, and no probe as more than eight times.
func (p *phase) fitP99() float64 {
	v := p.sloP99()
	if ok, why := p.meetsSLO(); !ok && why != "p99 over limit" {
		v = max(v, 2*sloMs)
	}
	return min(v, 8*sloMs)
}

// checkLedgers audits every device's sequence ledger: successful entries
// carry contiguous seqs 1..n and distinct op IDs, their count equals the
// successes the client saw, and no device is quarantined.
func (g *loadgen) checkLedgers(r *run) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := g.clients[0]
	total := 0
	for id := 0; id < g.shape.devices; id++ {
		dev := fleet.DeviceID(id)
		s := id % len(g.clients)
		ledger, err := c.Ledger(ctx, dev)
		if err != nil {
			r.fail("ledger of device %d: %v", id, err)
			continue
		}
		seen := map[uint64]bool{}
		var seq uint64
		for _, e := range ledger {
			if e.Seq == 0 {
				continue
			}
			seq++
			if e.Seq != seq {
				r.fail("device %d: ledger seq %d where %d was due", id, e.Seq, seq)
				break
			}
			if seen[e.OpID] {
				r.fail("device %d: op %#x ledgered twice", id, e.OpID)
			}
			seen[e.OpID] = true
		}
		if !g.unsure[s][dev] && int(seq) != g.okByDev[s][dev] {
			r.fail("device %d: ledger holds %d successes, the client saw %d", id, seq, g.okByDev[s][dev])
		}
		total += int(seq)
	}
	h, err := c.Health(ctx)
	switch {
	case err != nil:
		r.fail("health: %v", err)
	case h.Quarantined != 0:
		r.fail("%d devices quarantined", h.Quarantined)
	}
	fmt.Printf("ledgers: %d devices, %d ledgered successes; seqs contiguous, op IDs distinct, counts match the client, %d quarantined\n",
		g.shape.devices, total, h.Quarantined)
}
