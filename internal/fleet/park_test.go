package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"sentry/internal/faults"
)

// deviceTrace is everything a device's history exposes: what its client
// observed, its ledger, its restart accounting, and the confidentiality
// sweep of its final memory image. Two runs are equivalent iff every
// device's trace is byte-identical.
type deviceTrace struct {
	Recs        []clientRec
	Ledger      string
	Boots       int64
	Restarts    int64
	Quarantined bool
}

// lockstep is a Client that holds each device's next op until every device
// has sent its previous one, so all devices contend for the resident seats
// at every step. A capped run then parks and re-hydrates devices however
// quickly each op completes; without it, a device answered without pause
// can run its whole schedule while the others wait for its seat.
type lockstep struct {
	Client
	n int // devices driven, one op per device per step

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	step    int
}

func newLockstep(c Client, n int) *lockstep {
	l := &lockstep{Client: c, n: n}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *lockstep) Do(ctx context.Context, id DeviceID, op Op) (Result, error) {
	l.mu.Lock()
	if l.arrived++; l.arrived == l.n {
		l.arrived = 0
		l.step++
		l.cond.Broadcast()
	} else {
		for step := l.step; step == l.step; {
			l.cond.Wait()
		}
	}
	l.mu.Unlock()
	return l.Client.Do(ctx, id, op)
}

// runTrace opens a fleet, drives the deterministic soak workload against it
// in lockstep, and returns the per-device traces plus the
// park/hydrate/restart counters.
func runTrace(t *testing.T, nDev, ops int, seed int64, opts ...Option) ([]deviceTrace, map[string]uint64) {
	t.Helper()
	prof, ok := faults.ByName("benign")
	if !ok {
		t.Fatal("benign profile missing")
	}
	f := Open(nDev, append([]Option{WithSeed(seed), WithFaults(prof)}, opts...)...)
	recs := driveSoak(newLockstep(f, nDev), SoakConfig{Devices: nDev, OpsPerDevice: ops, Seed: seed}.withDefaults())
	f.Stop()
	if v := f.SweepConfidentiality(); len(v) != 0 {
		t.Fatalf("confidentiality violations: %v", v)
	}

	traces := make([]deviceTrace, nDev)
	for id := 0; id < nDev; id++ {
		ledger, err := f.Ledger(context.Background(), DeviceID(id))
		if err != nil {
			t.Fatalf("ledger %d: %v", id, err)
		}
		lj, _ := json.Marshal(ledger)
		h := f.DeviceHealth(DeviceID(id))
		traces[id] = deviceTrace{
			Recs:   recs[id],
			Ledger: string(lj),
			Boots:  h.Boots, Restarts: h.Restarts, Quarantined: h.Quarantined,
		}
	}
	reg := f.Metrics()
	counters := map[string]uint64{}
	for _, m := range []string{MetricParks, MetricHydrations, MetricRestarts, MetricRetries, MetricExecs} {
		counters[m] = reg.CounterValue(m)
	}
	return traces, counters
}

// The tentpole property: a device evicted to a snapshot and re-hydrated by
// fork mid-schedule is indistinguishable from one that stayed resident. Same
// client-observed results, byte-identical ledger, same boot/restart counts,
// clean confidentiality sweep — including across fault-injected power-cut
// restarts (the benign profile fires them throughout the schedule).
func TestEvictionEquivalence(t *testing.T) {
	const nDev, ops = 6, 60
	const seed = 11

	resident, cFree := runTrace(t, nDev, ops, seed, WithShards(2))
	evicted, cCap := runTrace(t, nDev, ops, seed, WithShards(2), WithResidentCap(2))

	// The capped run must actually have parked and re-hydrated devices —
	// otherwise this test proves nothing.
	if cCap[MetricParks] == 0 || cCap[MetricHydrations] == 0 {
		t.Fatalf("capped run exercised no eviction: parks=%d hydrations=%d",
			cCap[MetricParks], cCap[MetricHydrations])
	}
	if cFree[MetricParks] != 0 {
		t.Fatalf("unbounded run parked %d devices", cFree[MetricParks])
	}
	// And the power-cut-restart clause must be live in both runs.
	if cFree[MetricRestarts] == 0 || cCap[MetricRestarts] == 0 {
		t.Fatalf("no injected restarts (free=%d capped=%d): pick a hotter seed",
			cFree[MetricRestarts], cCap[MetricRestarts])
	}

	for id := 0; id < nDev; id++ {
		r, e := resident[id], evicted[id]
		if len(r.Recs) != len(e.Recs) {
			t.Fatalf("device %d: %d vs %d client records", id, len(r.Recs), len(e.Recs))
		}
		for i := range r.Recs {
			if r.Recs[i] != e.Recs[i] {
				t.Errorf("device %d op %d: resident %+v != evicted %+v", id, i, r.Recs[i], e.Recs[i])
			}
		}
		if r.Ledger != e.Ledger {
			t.Errorf("device %d: ledger diverged\nresident: %s\nevicted:  %s", id, r.Ledger, e.Ledger)
		}
		if r.Boots != e.Boots || r.Restarts != e.Restarts || r.Quarantined != e.Quarantined {
			t.Errorf("device %d: accounting diverged: resident {boots %d restarts %d q %v} evicted {boots %d restarts %d q %v}",
				id, r.Boots, r.Restarts, r.Quarantined, e.Boots, e.Restarts, e.Quarantined)
		}
	}
	// Retry decisions and executed attempts are part of the equivalence too.
	if cFree[MetricRetries] != cCap[MetricRetries] || cFree[MetricExecs] != cCap[MetricExecs] {
		t.Errorf("retry/exec counters diverged: free retries=%d execs=%d, capped retries=%d execs=%d",
			cFree[MetricRetries], cFree[MetricExecs], cCap[MetricRetries], cCap[MetricExecs])
	}
	// Hydration is a fork, never a boot: boots already compared per device.
}

// Parked state survives eviction: data written before the park is readable
// after re-hydration, and the hydration is a fork (no boot).
func TestParkedDeviceStateSurvives(t *testing.T) {
	f := Open(2, WithSeed(3), WithShards(1), WithResidentCap(1))
	defer f.Stop()
	ctx := context.Background()

	// Device 0 writes a disk sector, then device 1's boot evicts it.
	if _, err := f.Do(ctx, 0, Op{Code: OpDiskWrite, Arg: 7}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := f.Do(ctx, 1, Op{Code: OpPing}); err != nil {
		t.Fatalf("ping dev1: %v", err)
	}
	waitFor(t, func() bool { return f.Metrics().CounterValue(MetricParks) >= 1 })

	// Reading the sector back re-hydrates device 0 and verifies the pattern
	// end-to-end through the (re-fitted) encrypted disk.
	if _, err := f.Do(ctx, 0, Op{Code: OpDiskRead, Arg: 7}); err != nil {
		t.Fatalf("read after re-hydration: %v", err)
	}
	if n := f.Metrics().CounterValue(MetricHydrations); n < 1 {
		t.Fatalf("hydrations = %d, want >= 1", n)
	}
	if b := f.DeviceHealth(0).Boots; b != 1 {
		t.Fatalf("device 0 boots = %d, want 1 (hydration must not re-boot)", b)
	}
}

// Residency is lazy and bounded: a large logical population costs nothing
// until touched, and the resident gauge never exceeds the cap.
func TestHydrationLazyAndBounded(t *testing.T) {
	const cap = 4
	f := Open(10_000, WithSeed(5), WithShards(2), WithResidentCap(cap))
	defer f.Stop()
	ctx := context.Background()

	for i := 0; i < 64; i++ {
		id := DeviceID(i * 151) // stride across the hash space
		if _, err := f.Do(ctx, id, Op{Code: OpTouch, Arg: uint64(i)}); err != nil {
			t.Fatalf("touch %d: %v", id, err)
		}
		h, err := f.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Resident > cap {
			t.Fatalf("resident %d exceeds cap %d after %d touches", h.Resident, cap, i+1)
		}
	}
	h, _ := f.Health(ctx)
	if h.Touched != 64 {
		t.Fatalf("touched = %d, want 64", h.Touched)
	}
	if h.Logical != 10_000 {
		t.Fatalf("logical = %d, want 10000", h.Logical)
	}
}

// A quarantined device stays quarantined across eviction: its slot rejects
// without re-instantiating the corpse.
func TestQuarantineSurvivesEviction(t *testing.T) {
	f := openOptions(options{
		Devices: 2, Seed: 5, Shards: 1, ResidentCap: 1,
		MaxAttempts: 1, RestartBudget: 1, Backoff: &instantBackoff,
		testExec: func(a *actor, op Op) (bool, Result, error) {
			if op.Arg == 666 {
				panic("boom")
			}
			return true, Result{State: "ok"}, nil
		},
	})
	defer f.Stop()
	ctx := context.Background()

	for i := 0; i < 2; i++ { // budget 1: restart, then quarantine
		if _, err := f.Do(ctx, 0, Op{Code: OpTouch, Arg: 666}); err == nil {
			t.Fatal("crash op succeeded")
		}
	}
	waitFor(t, func() bool { return f.DeviceHealth(0).Quarantined })
	// Evict slot 0's seat by touching device 1, then poke device 0 again.
	if _, err := f.Do(ctx, 1, Op{Code: OpPing}); err != nil {
		t.Fatalf("ping dev1: %v", err)
	}
	if _, err := f.Do(ctx, 0, Op{Code: OpPing}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("post-eviction ping = %v, want ErrQuarantined", err)
	}
	hyd := f.Metrics().CounterValue(MetricHydrations)
	if hyd != 0 {
		t.Fatalf("quarantined device was re-hydrated %d times", hyd)
	}
}
