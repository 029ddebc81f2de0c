// Package fleet is the service layer over the simulator: it hosts a large
// population of simulated Sentry devices — up to 10^6 logical devices in
// one process — behind a sharded, admission-controlled front door, one
// single-goroutine actor per *resident* device, preserving the simulation's
// single-owner contract (each device's sim.Clock, sim.RNG, and obs
// instruments are touched by exactly one goroutine — enforced by the obs
// owner guard in debug and race builds).
//
// Scale comes from three mechanisms:
//
//   - consistent-hash sharding: 64-bit device IDs hash onto shard managers
//     (no dense actor array), so the ID space is sparse and an untouched
//     device costs nothing;
//   - lazy hydration/eviction: each shard keeps a bounded LRU of resident
//     actors. An idle device is parked back to a per-device snapshot (its
//     ledger, sequence counter, and restart accounting stay on the slot)
//     and re-hydrated by fork on its next op — byte-identical to having
//     stayed resident, by the snapshot soundness contract;
//   - admission control: a fleet-wide inflight token limit sheds excess
//     load at the front door with a typed ErrOverload instead of queueing
//     without bound.
//
// Around the actors sits the robustness stack carried over from the
// 32-device fleet: per-request deadlines, classified retries with seeded
// backoff, per-device circuit breakers, supervised restarts with a
// quarantine budget, graceful degradation under iRAM pressure, and a
// stalled-actor watchdog — all reporting through an obs.Registry.
//
// The typed front door is the Client interface (Do/Health/Ledger/Close),
// implemented by *Fleet in-process and by HTTPClient over the sentryd
// serving API, so harnesses run unchanged against either transport.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sentry"
	"sentry/internal/faults"
	"sentry/internal/obs"
	"sentry/internal/snapshot"
)

// Registry names of the fleet's metrics.
const (
	// Every Do lands in exactly one outcome counter: ops_ok, ops_refused
	// (a domain answer, see Refusal), or ops_failed (a service failure).
	// Clients that treat refusals as completed round trips read the same
	// split off /metrics.
	MetricOpsOK            = "fleet.ops_ok"
	MetricOpsRefused       = "fleet.ops_refused"
	MetricOpsFailed        = "fleet.ops_failed"
	MetricRetries          = "fleet.retries"
	MetricSheds            = "fleet.sheds"
	MetricExecs            = "fleet.execs"
	MetricRestarts         = "fleet.restarts"
	MetricQuarantines      = "fleet.quarantines"
	MetricRecoveryReboots  = "fleet.recovery_reboots"
	MetricRebootDrills     = "fleet.reboot_drills"
	MetricCryptoDowngrades = "fleet.crypto_downgrades"
	MetricBgDowngrades     = "fleet.bg_downgrades"
	MetricStalls           = "fleet.stalls"
	// Residency and admission metrics. Parks/hydrations are wall-clock
	// phenomena (eviction timing depends on host scheduling), so they are
	// deliberately excluded from the deterministic soak report.
	MetricParks      = "fleet.parks"
	MetricHydrations = "fleet.hydrations"
	MetricOverloads  = "fleet.overloads"
	MetricResident   = "fleet.resident"
	// MetricParkedBytes is the estimated resting cost of every parked
	// snapshot currently retained, in bytes — delta-encoded parks charge
	// only their divergence from the shared base. Updated at each park, so
	// it reports resting cost as of the last park of each device.
	MetricParkedBytes = "fleet.parked_bytes"
)

// options is the resolved configuration of a Fleet. Open sets it through
// the With* functional options; in-package tests and RunSoak set the fields
// no option reaches directly.
type options struct {
	Devices int // logical device population (IDs [0, Devices))
	Seed    int64
	PIN     string // unlock PIN for every device (default "4321")

	// Shards is the shard-manager count (default 8). Placement of device
	// IDs onto shards is consistent-hashed and never affects results, only
	// lock contention.
	Shards int
	// ResidentCap bounds live actors fleet-wide (default 0: unbounded).
	// When set, each shard holds ResidentCap/Shards seats (min 1) and
	// evicts its least-recently-used idle actor to admit a parked device.
	ResidentCap int
	// MaxInflight is the admission-control token count (default 0:
	// unbounded). Requests beyond it fail fast with ErrOverload.
	MaxInflight int

	MailboxCap  int // per-device queue bound (default 32)
	MaxAttempts int // total tries per request, first included (default 4)

	Backoff *Backoff      // nil → DefaultBackoff(Seed)
	Breaker BreakerConfig // zero fields defaulted per BreakerConfig

	// RestartBudget is how many fault-caused restarts a device absorbs
	// before it is quarantined (default 3). Planned reboots (drills,
	// deep-lock recovery) are not charged.
	RestartBudget int

	// Faults is the per-device fault profile (default none). Each boot
	// gets a fresh injector seeded from the device's boot seed.
	Faults faults.Profile

	Clock         Clock         // default Wall
	StallTimeout  time.Duration // watchdog stall threshold (default 2s)
	WatchdogEvery time.Duration // watchdog scan period (default 250ms)

	// SqueezeEvery squeezes the iRAM of every Nth device (ids N-1, 2N-1,
	// ...) at boot so graceful-degradation paths are exercised; 0 disables.
	SqueezeEvery int

	// testExec, when set, intercepts ops before the device executes them;
	// tests use it to inject stalls, panics, and scripted failures.
	testExec func(a *actor, op Op) (handled bool, res Result, err error)
}

const (
	// defaultTimeout bounds requests whose context carries no deadline —
	// every request in the system has a deadline.
	defaultTimeout = 30 * time.Second
	// diskKB is the encrypted-disk size per device.
	diskKB = 64
)

func (o options) withDefaults() options {
	if o.Devices <= 0 {
		o.Devices = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.PIN == "" {
		o.PIN = "4321"
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.ResidentCap < 0 {
		o.ResidentCap = 0
	}
	if o.ResidentCap > 0 && o.Shards > o.ResidentCap {
		// Fewer seats than shards: shrink the shard count so the per-shard
		// cap stays a faithful partition of the fleet-wide cap.
		o.Shards = o.ResidentCap
	}
	if o.MailboxCap <= 0 {
		o.MailboxCap = 32
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.RestartBudget <= 0 {
		o.RestartBudget = 3
	}
	if o.Clock == nil {
		o.Clock = Wall
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = 2 * time.Second
	}
	if o.WatchdogEvery <= 0 {
		o.WatchdogEvery = 250 * time.Millisecond
	}
	return o
}

// Option configures Open, mirroring sentry.Open's functional options.
type Option func(*options)

// WithSeed sets the fleet simulation seed (default 1).
func WithSeed(seed int64) Option { return func(o *options) { o.Seed = seed } }

// WithShards sets the shard-manager count.
func WithShards(n int) Option { return func(o *options) { o.Shards = n } }

// WithResidentCap bounds live actors fleet-wide; idle devices beyond the
// cap are parked to per-device snapshots and re-hydrated by fork on demand.
func WithResidentCap(n int) Option { return func(o *options) { o.ResidentCap = n } }

// WithMaxInflight sets the admission-control token count; requests beyond
// it fail fast with ErrOverload.
func WithMaxInflight(n int) Option { return func(o *options) { o.MaxInflight = n } }

// WithFaults sets the per-device fault profile.
func WithFaults(p faults.Profile) Option { return func(o *options) { o.Faults = p } }

// Fleet hosts a population of simulated devices behind the sharded
// robustness stack. It implements Client.
type Fleet struct {
	opt   options
	clock Clock
	bo    Backoff
	reg   *obs.Registry

	// top is the routing topology (consistent-hash ring + shard table),
	// swapped atomically by Reshard; reshardMu serialises reshards.
	top       atomic.Pointer[topology]
	reshardMu sync.Mutex

	admMax      int64
	admInflight atomic.Int64

	// base is the shared post-boot snapshot every device's boot forks:
	// one pristine world per fleet, built lazily by the first boot.
	// baseDev is the same world object, frozen (FreezeBase) so it can also
	// serve as the read-only base delta parks deflate against.
	baseOnce sync.Once
	base     *snapshot.Snapshot[*sentry.Device]
	baseDev  *sentry.Device
	baseErr  error

	stop     chan struct{}
	stopOnce sync.Once
	wdDone   chan struct{}
	stopped  atomic.Bool
	actorWG  sync.WaitGroup

	ctrOpsOK            *obs.Counter
	ctrOpsRefused       *obs.Counter
	ctrOpsFailed        *obs.Counter
	ctrRetries          *obs.Counter
	ctrSheds            *obs.Counter
	ctrExecs            *obs.Counter
	ctrRestarts         *obs.Counter
	ctrQuarantines      *obs.Counter
	ctrRecoveries       *obs.Counter
	ctrDrills           *obs.Counter
	ctrCryptoDowngrades *obs.Counter
	ctrBgDowngrades     *obs.Counter
	ctrStalls           *obs.Counter
	ctrParks            *obs.Counter
	ctrHydrations       *obs.Counter
	ctrOverloads        *obs.Counter
	gResident           *obs.Gauge
	gParkedBytes        *obs.Gauge
}

// Open starts a fleet hosting n logical devices. No device boots until its
// first op: a fresh fleet of 10^6 devices is a few shard tables, nothing
// more. Stop it with Close (or Stop).
func Open(n int, opts ...Option) *Fleet {
	o := options{Devices: n}
	for _, opt := range opts {
		opt(&o)
	}
	return newFleet(o.withDefaults())
}

func newFleet(opt options) *Fleet {
	f := &Fleet{
		opt:    opt,
		clock:  opt.Clock,
		reg:    obs.NewRegistry(),
		admMax: int64(opt.MaxInflight),
		stop:   make(chan struct{}),
		wdDone: make(chan struct{}),
	}
	if opt.Backoff != nil {
		f.bo = *opt.Backoff
	} else {
		f.bo = DefaultBackoff(uint64(opt.Seed))
	}
	// Resolve every fleet instrument up front, then bind the registry:
	// actors only update resolved counters (atomics, legal from anywhere);
	// any later cross-goroutine wiring is a bug the guard catches.
	f.ctrOpsOK = f.reg.Counter(MetricOpsOK)
	f.ctrOpsRefused = f.reg.Counter(MetricOpsRefused)
	f.ctrOpsFailed = f.reg.Counter(MetricOpsFailed)
	f.ctrRetries = f.reg.Counter(MetricRetries)
	f.ctrSheds = f.reg.Counter(MetricSheds)
	f.ctrExecs = f.reg.Counter(MetricExecs)
	f.ctrRestarts = f.reg.Counter(MetricRestarts)
	f.ctrQuarantines = f.reg.Counter(MetricQuarantines)
	f.ctrRecoveries = f.reg.Counter(MetricRecoveryReboots)
	f.ctrDrills = f.reg.Counter(MetricRebootDrills)
	f.ctrCryptoDowngrades = f.reg.Counter(MetricCryptoDowngrades)
	f.ctrBgDowngrades = f.reg.Counter(MetricBgDowngrades)
	f.ctrStalls = f.reg.Counter(MetricStalls)
	f.ctrParks = f.reg.Counter(MetricParks)
	f.ctrHydrations = f.reg.Counter(MetricHydrations)
	f.ctrOverloads = f.reg.Counter(MetricOverloads)
	f.gResident = f.reg.Gauge(MetricResident)
	f.gParkedBytes = f.reg.Gauge(MetricParkedBytes)
	f.reg.BindOwner()

	shards := make([]*shard, opt.Shards)
	for i := range shards {
		shards[i] = newShard(f, i, shardCap(opt.ResidentCap, opt.Shards, i))
	}
	f.top.Store(&topology{ring: newRing(opt.Shards), shards: shards})
	go f.watchdog()
	return f
}

// shardCap partitions the fleet-wide resident cap across shards, spreading
// the remainder over the low-indexed shards. 0 stays 0 (unbounded).
func shardCap(total, shards, idx int) int {
	if total <= 0 {
		return 0
	}
	c := total / shards
	if idx < total%shards {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}

// baseSnapshot returns the fleet's shared post-boot world, booting it on
// first use. Every device boot forks this one snapshot, so the marginal
// cost of a new device is fork metadata plus its own workload setup, not a
// full platform boot.
func (f *Fleet) baseSnapshot() (*snapshot.Snapshot[*sentry.Device], error) {
	f.baseOnce.Do(func() {
		sd, err := sentry.Open(sentry.Tegra3, f.opt.PIN, sentry.WithSeed(baseBootSeed(f.opt.Seed)))
		if err != nil {
			f.baseErr = err
			return
		}
		// Freeze the base world: it serves two concurrent roles — the
		// parked snapshot every boot forks (serialised by the snapshot
		// mutex) and the read-only base every delta park deflates against
		// (lock-free reads from parking actors).
		sd.FreezeBase()
		f.baseDev = sd
		f.base = snapshot.Adopt(sd)
	})
	return f.base, f.baseErr
}

// Metrics returns the fleet's registry.
func (f *Fleet) Metrics() *obs.Registry { return f.reg }

// Devices returns the logical device population.
func (f *Fleet) Devices() int { return f.opt.Devices }

// shardFor returns the shard owning id under the current topology.
func (f *Fleet) shardFor(id DeviceID) *shard {
	top := f.top.Load()
	return top.shards[top.ring.owner(id)]
}

// peek returns id's shard and slot without instantiating the slot. During a
// live reshard a mover that has not been pulled over yet is still found at
// its previous owner (a slot lives in exactly one shard table at all times).
func (f *Fleet) peek(id DeviceID) (*shard, *slot) {
	top := f.top.Load()
	sh := top.shards[top.ring.owner(id)]
	if sl := sh.peekSlot(id); sl != nil {
		return sh, sl
	}
	if top.prev != nil {
		if old := top.prev.shards[top.prev.ring.owner(id)]; old != sh {
			if sl := old.peekSlot(id); sl != nil {
				return old, sl
			}
		}
	}
	return sh, nil
}

// admit takes one admission token; false means the front door is full.
func (f *Fleet) admit() bool {
	if f.admMax <= 0 {
		return true
	}
	for {
		cur := f.admInflight.Load()
		if cur >= f.admMax {
			return false
		}
		if f.admInflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func (f *Fleet) unadmit() {
	if f.admMax > 0 {
		f.admInflight.Add(-1)
	}
}

// Do executes op against device id: it takes an admission token, imposes a
// deadline if ctx has none, gates on the device's circuit breaker, and
// retries transient failures with backed-off, deterministically jittered
// delays. A domain answer (a Refusal such as a locked screen) returns after
// one execution: no wait can change it. The returned Result carries the
// operation id (the handle the device ledger records) even when err is
// non-nil.
//
// Operation ids are allocated per device ((id+1)<<40 | n), not fleet-wide:
// a device driven by one client at a time then numbers its ops identically
// run after run, regardless of how the other devices' traffic interleaves —
// the property the soak harness's ledger audit and determinism check rest on.
func (f *Fleet) Do(ctx context.Context, id DeviceID, op Op) (Result, error) {
	if uint64(id) >= uint64(f.opt.Devices) {
		f.ctrOpsFailed.Inc()
		return Result{}, fmt.Errorf("fleet: device %d: %w", id, ErrUnknownDevice)
	}
	if f.stopped.Load() {
		f.ctrOpsFailed.Inc()
		return Result{}, fmt.Errorf("fleet: device %d: %w", id, ErrShutdown)
	}
	if !f.admit() {
		f.ctrOverloads.Inc()
		f.ctrOpsFailed.Inc()
		return Result{}, fmt.Errorf("fleet: device %d: inflight limit %d: %w", id, f.admMax, ErrOverload)
	}
	defer f.unadmit()

	sh, sl := f.resolve(id)
	opID := (uint64(id)+1)<<40 | sl.nextOp.Add(1)
	res := Result{OpID: opID}
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, defaultTimeout)
		defer cancel()
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		if err := ctx.Err(); err != nil {
			f.ctrOpsFailed.Inc()
			return res, err
		}
		r, err := f.try(ctx, sh, sl, op, opID)
		if errors.Is(err, errSlotMoved) {
			// A live reshard re-homed the slot between resolve and acquire;
			// follow it to its new shard without burning an attempt.
			sh, sl = f.resolve(id)
			attempt--
			continue
		}
		res.Restarts = sl.restarts.Load()
		if err == nil {
			r.OpID, r.Attempts, r.Restarts = res.OpID, res.Attempts, res.Restarts
			f.ctrOpsOK.Inc()
			return r, nil
		}
		lastErr = err
		if !Transient(err) {
			if Refusal(ErrorCode(err)) {
				f.ctrOpsRefused.Inc()
			} else {
				f.ctrOpsFailed.Inc()
			}
			return res, err
		}
		if attempt >= f.opt.MaxAttempts {
			break
		}
		f.ctrRetries.Inc()
		select {
		case <-ctx.Done():
			f.ctrOpsFailed.Inc()
			return res, ctx.Err()
		case <-f.clock.After(f.bo.Delay(opID, attempt)):
		}
	}
	f.ctrOpsFailed.Inc()
	return res, fmt.Errorf("fleet: device %d: giving up after %d attempts: %w",
		id, f.opt.MaxAttempts, lastErr)
}

// try is one attempt: quarantine fast-path, breaker gate, residency
// acquisition, actor call, breaker outcome.
func (f *Fleet) try(ctx context.Context, sh *shard, sl *slot, op Op, opID uint64) (Result, error) {
	if sl.quarantined.Load() {
		return Result{}, fmt.Errorf("fleet: device %d: %w", sl.id, ErrQuarantined)
	}
	if err := sl.brk.Allow(); err != nil {
		return Result{}, err
	}
	a, err := sh.acquire(ctx, sl)
	if err != nil {
		return Result{}, err
	}
	defer sh.release(sl)
	r, err := a.call(ctx, op, opID)
	sl.brk.Record(!healthFailure(err))
	return r, err
}

// healthFailure decides which outcomes the breaker counts against the
// device. Domain answers (wrong PIN, locked screen, unlocked screen) are
// healthy responses; restarts, quarantines, sheds, and blown deadlines
// indict the device.
func healthFailure(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrDeviceRestarted) ||
		errors.Is(err, ErrQuarantined) ||
		errors.Is(err, ErrShed) ||
		errors.Is(err, context.DeadlineExceeded)
}

// watchdog periodically scans resident actors stuck inside one request
// longer than the stall threshold.
func (f *Fleet) watchdog() {
	defer close(f.wdDone)
	for {
		select {
		case <-f.stop:
			return
		case <-f.clock.After(f.opt.WatchdogEvery):
		}
		now := f.clock.Now().UnixNano()
		for _, sh := range f.top.Load().shards {
			sh.mu.Lock()
			for sl := sh.lruHead; sl != nil; sl = sl.lruNext {
				since := sl.act.busySince.Load()
				if since != 0 && now-since > int64(f.opt.StallTimeout) {
					if sl.stalled.CompareAndSwap(false, true) {
						f.ctrStalls.Inc()
					}
				} else if since == 0 {
					sl.stalled.Store(false)
				}
			}
			sh.mu.Unlock()
		}
	}
}

// Stop shuts the fleet down: resident actors drain their mailboxes
// (pending requests fail with ErrShutdown) and exit — without parking, so
// their final worlds stay inspectable for the confidentiality sweep — and
// the watchdog exits. Idempotent.
func (f *Fleet) Stop() {
	f.stopOnce.Do(func() {
		f.stopped.Store(true)
		close(f.stop)
		for _, sh := range f.top.Load().shards {
			sh.mu.Lock()
			for _, sl := range sh.slots {
				if sl.act != nil {
					sl.act.wake()
				}
			}
			sh.mu.Unlock()
			sh.wakeWaiters()
		}
		f.actorWG.Wait()
		<-f.wdDone
	})
}

// Close implements Client: it stops the fleet.
func (f *Fleet) Close() error {
	f.Stop()
	return nil
}

// DeviceHealth is one device's probe view.
type DeviceHealth struct {
	ID          DeviceID     `json:"id"`
	Touched     bool         `json:"touched"`
	Resident    bool         `json:"resident"`
	Quarantined bool         `json:"quarantined"`
	Stalled     bool         `json:"stalled"`
	Breaker     BreakerState `json:"-"`
	BreakerStr  string       `json:"breaker"`
	Boots       int64        `json:"boots"`
	Restarts    int64        `json:"restarts"`
	Queue       int          `json:"queue"`
}

// DeviceHealth returns the probe view of one device. An untouched device
// reports Touched=false and a closed breaker.
func (f *Fleet) DeviceHealth(id DeviceID) DeviceHealth {
	h := DeviceHealth{ID: id, BreakerStr: BreakerClosed.String()}
	sh, sl := f.peek(id)
	if sl == nil {
		return h
	}
	st := sl.brk.State()
	h.Touched = true
	h.Quarantined = sl.quarantined.Load()
	h.Stalled = sl.stalled.Load()
	h.Breaker = st
	h.BreakerStr = st.String()
	h.Boots = sl.boots.Load()
	h.Restarts = sl.restarts.Load()
	// The lifecycle fields are guarded by the owning shard's mutex; if a
	// live reshard re-homed the slot since the peek, follow it.
	for {
		sh.mu.Lock()
		if sh.slots[id] == sl {
			h.Resident = sl.state != slotParked
			if sl.act != nil {
				h.Queue = sl.act.mbox.len()
			}
			sh.mu.Unlock()
			return h
		}
		sh.mu.Unlock()
		sh, _ = f.peek(id)
	}
}

// Health implements Client: the fleet-level probe summary.
func (f *Fleet) Health(ctx context.Context) (FleetHealth, error) {
	top := f.top.Load()
	h := FleetHealth{
		Logical: uint64(f.opt.Devices),
		Shards:  len(top.shards),
	}
	for _, sh := range top.shards {
		sh.mu.Lock()
		h.Touched += len(sh.slots)
		h.Resident += sh.resident
		for _, sl := range sh.slots {
			if sl.quarantined.Load() {
				h.Quarantined++
			}
			if sl.stalled.Load() {
				h.Stalled++
			}
		}
		sh.mu.Unlock()
	}
	h.Ready = f.ready(h)
	return h, nil
}

// Ready is the readiness probe: the fleet accepts traffic and has capacity
// to serve — untouched devices remain, or at least one touched device is
// healthy.
func (f *Fleet) Ready() bool {
	h, _ := f.Health(context.Background())
	return h.Ready
}

func (f *Fleet) ready(h FleetHealth) bool {
	if f.stopped.Load() {
		return false
	}
	if uint64(h.Touched) < h.Logical {
		return true
	}
	return h.Quarantined+h.Stalled < h.Touched
}

// Ledger implements Client: a copy of device id's sequence ledger (nil for
// an untouched device). Meaningful once the device is idle (ordinarily
// after Stop or between ops).
func (f *Fleet) Ledger(ctx context.Context, id DeviceID) ([]LedgerEntry, error) {
	if uint64(id) >= uint64(f.opt.Devices) {
		return nil, fmt.Errorf("fleet: device %d: %w", id, ErrUnknownDevice)
	}
	_, sl := f.peek(id)
	if sl == nil {
		return nil, nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return append([]LedgerEntry(nil), sl.ledger...), nil
}

// RestartCauses returns the recorded cause of every fault-caused restart
// (and quarantine) of device id.
func (f *Fleet) RestartCauses(id DeviceID) []string {
	_, sl := f.peek(id)
	if sl == nil {
		return nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return append([]string(nil), sl.causes...)
}

// BreakerTrips sums breaker trips across touched devices.
func (f *Fleet) BreakerTrips() uint64 {
	var n uint64
	for _, sh := range f.top.Load().shards {
		sh.mu.Lock()
		for _, sl := range sh.slots {
			n += sl.brk.Trips()
		}
		sh.mu.Unlock()
	}
	return n
}

// SweepConfidentiality runs the end-of-run invariant scan on every touched
// device (lock, scan live clauses, cut power, post-mortem clauses) and
// returns all violations recorded during and after the run. Parked devices
// are swept over a fork of their parked snapshot — byte-identical to the
// world they would have presented had they stayed resident. Call only
// after Stop.
func (f *Fleet) SweepConfidentiality() []string {
	if !f.stopped.Load() {
		panic("fleet: SweepConfidentiality before Stop")
	}
	var out []string
	for _, sh := range f.top.Load().shards {
		// Post-Stop: actorWG has drained, states are frozen; sort for a
		// deterministic sweep order.
		ids := make([]DeviceID, 0, len(sh.slots))
		for id := range sh.slots {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			sl := sh.slots[id]
			switch {
			case sl.act != nil && sl.act.d != nil:
				sl.sweep(sl.act.d)
			case sl.parked != nil:
				d := sl.parked.Fork()
				d.dev.Metrics().BindOwner()
				sl.sweep(d)
			}
			sl.mu.Lock()
			out = append(out, sl.violations...)
			sl.mu.Unlock()
		}
	}
	return out
}
