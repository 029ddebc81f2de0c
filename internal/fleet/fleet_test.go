package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sentry/internal/aes"
	"sentry/internal/kernel"
	"sentry/internal/onsoc"
)

// instantBackoff removes real sleeps from retry loops in tests.
var instantBackoff = Backoff{Base: 1, Cap: 1, Jitter: 0}

// openOptions starts a fleet from an options struct, for tests that set
// fields no With* option reaches (testExec, Clock, watchdog timings).
func openOptions(o options) *Fleet {
	return newFleet(o.withDefaults())
}

// testSlot returns device id's slot, nil before its first op.
func testSlot(f *Fleet, id DeviceID) *slot {
	return f.shardFor(id).peekSlot(id)
}

// testActor returns device id's resident actor (nil when parked/untouched),
// read under the shard lock.
func testActor(f *Fleet, id DeviceID) *actor {
	sh := f.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sl := sh.slots[id]; sl != nil {
		return sl.act
	}
	return nil
}

// queueLen reports device id's mailbox depth (0 when not resident).
func queueLen(f *Fleet, id DeviceID) int {
	if a := testActor(f, id); a != nil {
		return a.mbox.len()
	}
	return 0
}

func TestTransientClassifier(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("layer: %w", err) }
	cases := []struct {
		err       error
		transient bool
	}{
		{nil, false},
		{kernel.ErrBadPIN, false},
		{wrap(kernel.ErrBadPIN), false},
		{ErrQuarantined, false},
		{ErrShutdown, false},
		{ErrUnknownDevice, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{errors.New("mystery"), false}, // unknown errors are not retried
		// Domain answers are final: only another op changes the lock
		// state, so no wait can turn a refusal into a success.
		{kernel.ErrLocked, false},
		{wrap(kernel.ErrLocked), false},
		{ErrNotLocked, false},
		{wrap(ErrNotLocked), false},
		{ErrShed, true},
		{ErrOverload, true},
		{ErrCircuitOpen, true},
		{ErrDeviceRestarted, true},
		{wrap(ErrDeviceRestarted), true},
		{onsoc.ErrIRAMExhausted, true},
		{kernel.ErrNoMemory, true},
		// A countermeasure-detected fault abort is fail-safe: retryable,
		// never a confidentiality violation.
		{&aes.FaultDetectedError{Countermeasure: aes.CMRedundant, Block: 3}, true},
		{wrap(&aes.FaultDetectedError{Countermeasure: aes.CMTag}), true},
	}
	for _, c := range cases {
		if got := Transient(c.err); got != c.transient {
			t.Errorf("Transient(%v) = %v, want %v", c.err, got, c.transient)
		}
		wantPerm := c.err != nil && !c.transient
		if got := Permanent(c.err); got != wantPerm {
			t.Errorf("Permanent(%v) = %v, want %v", c.err, got, wantPerm)
		}
	}
}

// Every typed error round-trips the wire-code mapping: ErrorForCode of
// ErrorCode reproduces an error the same errors.Is checks accept.
func TestErrorCodeRoundTrip(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("layer: %w", err) }
	sentinels := []error{
		kernel.ErrBadPIN, kernel.ErrLocked, ErrNotLocked, ErrQuarantined, ErrDeviceRestarted,
		ErrShed, ErrOverload, ErrCircuitOpen, ErrShutdown, ErrUnknownDevice,
		context.DeadlineExceeded, context.Canceled,
	}
	for _, sent := range sentinels {
		code := ErrorCode(wrap(sent))
		back := ErrorForCode(code, "remote detail")
		if !errors.Is(back, sent) {
			t.Errorf("ErrorForCode(%q) = %v, does not wrap %v", code, back, sent)
		}
		// Transience must survive the round trip — the retry classifier
		// behaves identically on both transports.
		if Transient(back) != Transient(sent) {
			t.Errorf("Transient mismatch across round trip for %v", sent)
		}
		// Exactly the domain answers are refusals, the split both sides'
		// outcome counters book.
		if want := errors.Is(sent, kernel.ErrBadPIN) || errors.Is(sent, kernel.ErrLocked) ||
			errors.Is(sent, ErrNotLocked); Refusal(code) != want {
			t.Errorf("Refusal(%q) = %v, want %v", code, Refusal(code), want)
		}
	}
	if ErrorCode(nil) != CodeOK {
		t.Errorf("ErrorCode(nil) = %q, want ok", ErrorCode(nil))
	}
	if ErrorForCode(CodeOK, "") != nil || ErrorForCode("", "") != nil {
		t.Error("ErrorForCode(ok) != nil")
	}
	if err := ErrorForCode("some_future_code", "detail"); err == nil {
		t.Error("unknown code should still produce an error")
	}
}

func TestMailboxPriorityAndShed(t *testing.T) {
	m := newMailbox(2)
	mk := func(code OpCode) *request {
		return &request{op: Op{Code: code}, reply: make(chan result, 1)}
	}
	low, norm := mk(OpPing), mk(OpTouch)
	if _, err := m.push(low, PrioLow); err != nil {
		t.Fatal(err)
	}
	if _, err := m.push(norm, PrioNormal); err != nil {
		t.Fatal(err)
	}
	// Full. A high push steals the youngest lowest-priority entry (low).
	high := mk(OpLock)
	shedded, err := m.push(high, PrioHigh)
	if err != nil || !shedded {
		t.Fatalf("high push: shedded=%v err=%v, want true,nil", shedded, err)
	}
	select {
	case res := <-low.reply:
		if !errors.Is(res.err, ErrShed) {
			t.Fatalf("victim error = %v, want ErrShed", res.err)
		}
	default:
		t.Fatal("victim not completed with ErrShed")
	}
	// A low push into a full queue of higher-priority work sheds itself.
	if _, err := m.push(mk(OpPing), PrioLow); !errors.Is(err, ErrShed) {
		t.Fatalf("low push into full queue = %v, want ErrShed", err)
	}
	// Pop order: priority first, FIFO within.
	if r := m.pop(); r != high {
		t.Fatal("pop did not return the high-priority request first")
	}
	if r := m.pop(); r != norm {
		t.Fatal("pop did not return the normal request second")
	}
	// Close fails later pushes and returns what is queued.
	m.push(mk(OpPing), PrioLow)
	pending := m.close(ErrShutdown)
	if len(pending) != 1 {
		t.Fatalf("close returned %d pending, want 1", len(pending))
	}
	if _, err := m.push(mk(OpPing), PrioLow); !errors.Is(err, ErrShutdown) {
		t.Fatalf("push after close = %v, want ErrShutdown", err)
	}
}

func TestDoRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	f := openOptions(options{
		Devices: 1, Seed: 5, MaxAttempts: 4, Backoff: &instantBackoff,
		testExec: func(a *actor, op Op) (bool, Result, error) {
			if calls.Add(1) < 3 {
				return true, Result{}, fmt.Errorf("flaky: %w", ErrDeviceRestarted)
			}
			return true, Result{State: "ok"}, nil
		},
	})
	defer f.Stop()

	res, err := f.Do(context.Background(), 0, Op{Code: OpTouch})
	if err != nil {
		t.Fatalf("Do = %v, want success on third attempt", err)
	}
	if res.State != "ok" {
		t.Fatalf("state = %q, want ok", res.State)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", res.Attempts)
	}
	if n := f.Metrics().CounterValue(MetricRetries); n != 2 {
		t.Fatalf("retries = %d, want 2", n)
	}
	if n := f.Metrics().CounterValue(MetricOpsOK); n != 1 {
		t.Fatalf("ops_ok = %d, want 1", n)
	}
}

func TestDetectedFaultAbortRetriedOnFakeClock(t *testing.T) {
	// A glitched encryption caught by a countermeasure surfaces as a
	// transient error: the actor retries through the backoff path (driven
	// here entirely by a FakeClock — no wall sleeps) and the rekeyed device
	// serves the retry.
	clk := NewFakeClock()
	bo := Backoff{Base: time.Millisecond, Cap: time.Millisecond, Jitter: 0}
	var calls atomic.Int64
	f := openOptions(options{
		Devices: 1, Seed: 5, MaxAttempts: 4, Backoff: &bo, Clock: clk,
		testExec: func(a *actor, op Op) (bool, Result, error) {
			if calls.Add(1) < 3 {
				return true, Result{}, fmt.Errorf("crypt: %w",
					&aes.FaultDetectedError{Countermeasure: aes.CMRedundant, Block: 1})
			}
			return true, Result{State: "rekeyed-ok"}, nil
		},
	})
	defer f.Stop()

	type out struct {
		res Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := f.Do(context.Background(), 0, Op{Code: OpTouch})
		done <- out{res, err}
	}()
	var got out
	for {
		if clk.Pending() > 0 {
			clk.Advance(time.Millisecond)
		}
		select {
		case got = <-done:
		default:
			time.Sleep(100 * time.Microsecond)
			continue
		}
		break
	}
	if got.err != nil {
		t.Fatalf("Do = %v, want success after fault-abort retries", got.err)
	}
	if got.res.State != "rekeyed-ok" || got.res.Attempts != 3 {
		t.Fatalf("result = %+v, want 3 attempts", got.res)
	}
	if n := f.Metrics().CounterValue(MetricRetries); n != 2 {
		t.Fatalf("retries = %d, want 2", n)
	}
}

func TestFaultDetectedCodeRoundTrip(t *testing.T) {
	// Transience must survive the HTTP wire code for detected faults too.
	err := fmt.Errorf("device: %w", &aes.FaultDetectedError{Countermeasure: aes.CMTag, Block: 2})
	code := ErrorCode(err)
	if code != CodeFaultDetected {
		t.Fatalf("ErrorCode = %q, want %q", code, CodeFaultDetected)
	}
	back := ErrorForCode(code, err.Error())
	var fd *aes.FaultDetectedError
	if !errors.As(back, &fd) {
		t.Fatalf("round-tripped error %v lost its type", back)
	}
	if !Transient(back) {
		t.Fatal("round-tripped fault abort no longer transient")
	}
}

func TestDoNeverRetriesPermanentFailures(t *testing.T) {
	var calls atomic.Int64
	f := openOptions(options{
		Devices: 1, Seed: 5, MaxAttempts: 4, Backoff: &instantBackoff,
		testExec: func(a *actor, op Op) (bool, Result, error) {
			calls.Add(1)
			return true, Result{}, fmt.Errorf("auth: %w", kernel.ErrBadPIN)
		},
	})
	defer f.Stop()

	_, err := f.Do(context.Background(), 0, Op{Code: OpUnlock})
	if !errors.Is(err, kernel.ErrBadPIN) {
		t.Fatalf("Do = %v, want ErrBadPIN", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("exec ran %d times for a permanent error, want 1", n)
	}
	if n := f.Metrics().CounterValue(MetricRetries); n != 0 {
		t.Fatalf("retries = %d, want 0", n)
	}
}

// A locked screen refusing a touch is an answer, not a fault: Do executes
// it once and returns it — no retry, no backoff timer. The fleet is
// resident-capped so the refusal must hydrate the parked device, and a
// retry would re-acquire residency each time.
func TestDoAnswersLockedOnce(t *testing.T) {
	clk := NewFakeClock()
	f := openOptions(options{Devices: 2, Seed: 5, Clock: clk, ResidentCap: 1})
	defer f.Stop()
	// A real deadline bounds the test should a retry park Do on a backoff
	// timer the fake clock never fires.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if _, err := f.Do(ctx, 0, Op{Code: OpLock, Prio: PrioHigh}); err != nil {
		t.Fatalf("lock: %v", err)
	}
	// Device 1 takes the only seat; device 0 parks, locked.
	if _, err := f.Do(ctx, 1, Op{Code: OpPing}); err != nil {
		t.Fatalf("ping: %v", err)
	}
	// The watchdog's scan timer is the one timer that stays armed; any
	// timer beyond it is a retry backoff.
	waitFor(t, func() bool { return clk.Pending() == 1 })
	reg := f.Metrics()
	execs, hydrations := reg.CounterValue(MetricExecs), reg.CounterValue(MetricHydrations)

	res, err := f.Do(ctx, 0, Op{Code: OpTouch, Arg: 1})
	if !errors.Is(err, kernel.ErrLocked) || ErrorCode(err) != CodeLocked {
		t.Fatalf("touch on a locked device = %v, want kernel.ErrLocked", err)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", res.Attempts)
	}
	if n := reg.CounterValue(MetricExecs) - execs; n != 1 {
		t.Errorf("refusal executed %d times, want 1", n)
	}
	if n := reg.CounterValue(MetricHydrations) - hydrations; n != 1 {
		t.Errorf("refusal hydrated %d times, want 1", n)
	}
	if n := reg.CounterValue(MetricRetries); n != 0 {
		t.Errorf("retries = %d, want 0", n)
	}
	if n := clk.Pending(); n != 1 {
		t.Errorf("%d timers pending, want only the watchdog's: a backoff was armed", n)
	}
	if r, fl := reg.CounterValue(MetricOpsRefused), reg.CounterValue(MetricOpsFailed); r != 1 || fl != 0 {
		t.Errorf("ops_refused=%d ops_failed=%d, want 1, 0", r, fl)
	}

	ledger, err := f.Ledger(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	var failed []LedgerEntry
	for _, e := range ledger {
		if e.Err != "" {
			failed = append(failed, e)
		}
	}
	if len(ledger) != 2 || len(failed) != 1 || failed[0].OpID != res.OpID || failed[0].Seq != 0 {
		t.Fatalf("ledger = %+v, want the lock plus exactly one failed entry for op %d", ledger, res.OpID)
	}
}

func TestDoUnknownDevice(t *testing.T) {
	f := openOptions(options{Devices: 1, Seed: 5})
	defer f.Stop()
	_, err := f.Do(context.Background(), 7, Op{Code: OpPing})
	if !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("Do(7) = %v, want ErrUnknownDevice", err)
	}
}

// Admission control sheds whole requests at the front door with a typed
// ErrOverload once the inflight token pool is exhausted, and Do never
// retries it.
func TestAdmissionControlOverload(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	f := openOptions(options{
		Devices: 2, Seed: 5, MaxInflight: 1, MaxAttempts: 4, Backoff: &instantBackoff,
		testExec: func(a *actor, op Op) (bool, Result, error) {
			if op.Code == OpRebootDrill {
				started <- struct{}{}
				<-block
			}
			return true, Result{State: "ok"}, nil
		},
	})
	defer f.Stop()

	go f.Do(context.Background(), 0, Op{Code: OpRebootDrill})
	<-started

	// The single admission token is held by the blocked request.
	_, err := f.Do(context.Background(), 1, Op{Code: OpPing})
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("Do over the inflight limit = %v, want ErrOverload", err)
	}
	if n := f.Metrics().CounterValue(MetricOverloads); n != 1 {
		t.Fatalf("overloads = %d, want 1 (ErrOverload must not be retried)", n)
	}
	close(block)
	// Token released: traffic flows again.
	waitFor(t, func() bool {
		_, err := f.Do(context.Background(), 1, Op{Code: OpPing})
		return err == nil
	})
}

// A saturated mailbox sheds the lowest-priority queued request in favour of
// higher-priority arrivals.
func TestOverloadShedsLowestPriority(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	f := openOptions(options{
		Devices: 1, Seed: 5, MailboxCap: 2, MaxAttempts: 1, Backoff: &instantBackoff,
		testExec: func(a *actor, op Op) (bool, Result, error) {
			if op.Code == OpRebootDrill { // the blocker occupying the actor
				started <- struct{}{}
				<-block
			}
			return true, Result{State: "ok"}, nil
		},
	})
	defer f.Stop()

	go f.Do(context.Background(), 0, Op{Code: OpRebootDrill, Prio: PrioHigh})
	<-started

	// Two low-priority requests fill the mailbox while the actor is busy.
	var wg sync.WaitGroup
	lowErrs := make([]error, 2)
	for i := range lowErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, lowErrs[i] = f.Do(context.Background(), 0, Op{Code: OpPing, Prio: PrioLow})
		}(i)
	}
	waitFor(t, func() bool { return queueLen(f, 0) == 2 })

	// A high-priority request must get in; one low request goes overboard.
	// The shed happens synchronously inside the push, before the actor is
	// released.
	highErr := make(chan error, 1)
	go func() {
		_, err := f.Do(context.Background(), 0, Op{Code: OpLock, Prio: PrioHigh})
		highErr <- err
	}()
	waitFor(t, func() bool { return f.Metrics().CounterValue(MetricSheds) == 1 })
	close(block)
	if err := <-highErr; err != nil {
		t.Fatalf("high-priority Do = %v, want success", err)
	}
	wg.Wait()

	sheds := 0
	for _, e := range lowErrs {
		if errors.Is(e, ErrShed) {
			sheds++
		} else if e != nil {
			t.Fatalf("low-priority Do = %v, want nil or ErrShed", e)
		}
	}
	if sheds != 1 {
		t.Fatalf("%d low requests shed, want exactly 1", sheds)
	}
	if n := f.Metrics().CounterValue(MetricSheds); n != 1 {
		t.Fatalf("sheds counter = %d, want 1", n)
	}
}

// A panicking device is restarted through the supervised path until the
// restart budget runs out, then quarantined.
func TestPanicIsolationAndQuarantine(t *testing.T) {
	f := openOptions(options{
		Devices: 1, Seed: 5, MaxAttempts: 1, RestartBudget: 2, Backoff: &instantBackoff,
		testExec: func(a *actor, op Op) (bool, Result, error) {
			if op.Arg == 666 {
				panic("boom")
			}
			return false, Result{}, nil // fall through to the real device
		},
	})
	defer f.Stop()

	crash := Op{Code: OpTouch, Arg: 666}
	for i := 0; i < 2; i++ {
		_, err := f.Do(context.Background(), 0, crash)
		if !errors.Is(err, ErrDeviceRestarted) {
			t.Fatalf("crash %d: err = %v, want ErrDeviceRestarted", i+1, err)
		}
	}
	// Between crashes the freshly booted device still serves real traffic.
	if _, err := f.Do(context.Background(), 0, Op{Code: OpPing}); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}

	// Third crash exceeds the budget: quarantine.
	_, err := f.Do(context.Background(), 0, crash)
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("third crash: err = %v, want ErrQuarantined", err)
	}
	// And the quarantine is sticky, even for innocent requests.
	_, err = f.Do(context.Background(), 0, Op{Code: OpPing})
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("post-quarantine ping: err = %v, want ErrQuarantined", err)
	}

	h := f.DeviceHealth(0)
	if !h.Quarantined {
		t.Fatal("health does not report quarantine")
	}
	if f.Ready() {
		t.Fatal("fleet with every device quarantined reports ready")
	}
	causes := f.RestartCauses(0)
	if len(causes) != 3 {
		t.Fatalf("causes = %v, want 3 entries", causes)
	}
	for _, c := range causes {
		if c != "panic: boom" {
			t.Fatalf("cause = %q, want panic: boom", c)
		}
	}
	if n := f.Metrics().CounterValue(MetricRestarts); n != 3 {
		t.Fatalf("restarts = %d, want 3", n)
	}
	if n := f.Metrics().CounterValue(MetricQuarantines); n != 1 {
		t.Fatalf("quarantines = %d, want 1", n)
	}
}

// Every request has a deadline, and a blown deadline is not retried.
func TestDeadlineExceeded(t *testing.T) {
	block := make(chan struct{})
	f := openOptions(options{
		Devices: 1, Seed: 5, MaxAttempts: 4, Backoff: &instantBackoff,
		testExec: func(a *actor, op Op) (bool, Result, error) {
			<-block
			return true, Result{State: "ok"}, nil
		},
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := f.Do(ctx, 0, Op{Code: OpTouch})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do = %v, want DeadlineExceeded", err)
	}
	if n := f.Metrics().CounterValue(MetricRetries); n != 0 {
		t.Fatalf("a blown deadline was retried %d times", n)
	}
	close(block)
	f.Stop()
}

// Repeated health failures trip the device's breaker; once open, requests
// are rejected without touching the actor.
func TestBreakerTripsOnHealthFailures(t *testing.T) {
	f := openOptions(options{
		Devices: 1, Seed: 5, MaxAttempts: 1, Backoff: &instantBackoff,
		Breaker: BreakerConfig{Window: 3, MinSamples: 3, FailureRate: 1, OpenFor: time.Hour, HalfOpenProbes: 1},
		testExec: func(a *actor, op Op) (bool, Result, error) {
			if op.Code == OpTouch {
				return true, Result{}, fmt.Errorf("dying: %w", ErrDeviceRestarted)
			}
			return true, Result{State: "ok"}, nil
		},
	})
	defer f.Stop()

	for i := 0; i < 3; i++ {
		if _, err := f.Do(context.Background(), 0, Op{Code: OpTouch}); !errors.Is(err, ErrDeviceRestarted) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	execsBefore := f.Metrics().CounterValue(MetricExecs)
	_, err := f.Do(context.Background(), 0, Op{Code: OpTouch})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Do with open breaker = %v, want ErrCircuitOpen", err)
	}
	if got := f.Metrics().CounterValue(MetricExecs); got != execsBefore {
		t.Fatalf("open breaker still executed the request (%d → %d)", execsBefore, got)
	}
	if f.BreakerTrips() != 1 {
		t.Fatalf("trips = %d, want 1", f.BreakerTrips())
	}
	if st := f.DeviceHealth(0).BreakerStr; st != "open" {
		t.Fatalf("health breaker = %q, want open", st)
	}
}

// Domain answers — wrong PIN, locked screen, unlocked screen — are healthy
// responses: they must not trip the breaker, and the fleet books them as
// refusals, not failures.
func TestBreakerIgnoresDomainErrors(t *testing.T) {
	domain := []error{kernel.ErrBadPIN, kernel.ErrLocked, ErrNotLocked}
	var calls atomic.Int64
	f := openOptions(options{
		Devices: 1, Seed: 5, MaxAttempts: 1, Backoff: &instantBackoff,
		Breaker: BreakerConfig{Window: 3, MinSamples: 3, FailureRate: 1, OpenFor: time.Hour, HalfOpenProbes: 1},
		testExec: func(a *actor, op Op) (bool, Result, error) {
			return true, Result{}, fmt.Errorf("domain: %w", domain[calls.Add(1)%3])
		},
	})
	defer f.Stop()
	for i := 0; i < 6; i++ {
		f.Do(context.Background(), 0, Op{Code: OpUnlock})
	}
	if st := testSlot(f, 0).brk.State(); st != BreakerClosed {
		t.Fatalf("breaker = %v after domain errors, want closed", st)
	}
	if r, fl := f.Metrics().CounterValue(MetricOpsRefused), f.Metrics().CounterValue(MetricOpsFailed); r != 6 || fl != 0 {
		t.Fatalf("ops_refused=%d ops_failed=%d, want 6, 0", r, fl)
	}
}

// iRAM exhaustion degrades gracefully: disk crypto falls back to the
// DRAM-arena provider and pinned background pools to locked-way sessions,
// each downgrade counted — and the device keeps serving.
func TestGracefulDegradationUnderIRAMPressure(t *testing.T) {
	f := openOptions(options{Devices: 1, Seed: 5, SqueezeEvery: 1, Backoff: &instantBackoff})
	defer f.Stop()

	ctx := context.Background()
	// The degraded disk still works. (Any completed op also proves the boot
	// finished, so the downgrade counter is stable afterwards.)
	if _, err := f.Do(ctx, 0, Op{Code: OpDiskWrite, Arg: 5}); err != nil {
		t.Fatalf("disk write on degraded crypto: %v", err)
	}
	if n := f.Metrics().CounterValue(MetricCryptoDowngrades); n != 1 {
		t.Fatalf("crypto_downgrades = %d, want 1 (squeezed boot)", n)
	}
	if _, err := f.Do(ctx, 0, Op{Code: OpDiskRead, Arg: 5}); err != nil {
		t.Fatalf("disk read on degraded crypto: %v", err)
	}
	// Pinned background sessions degrade to locked-way sessions.
	if _, err := f.Do(ctx, 0, Op{Code: OpLock, Prio: PrioHigh}); err != nil {
		t.Fatalf("lock: %v", err)
	}
	res, err := f.Do(ctx, 0, Op{Code: OpBgPinned})
	if err != nil {
		t.Fatalf("bg-pinned on squeezed device: %v", err)
	}
	if res.Session != "bg-pinned-downgraded" {
		t.Fatalf("bg-pinned session = %q, want bg-pinned-downgraded", res.Session)
	}
	if n := f.Metrics().CounterValue(MetricBgDowngrades); n != 1 {
		t.Fatalf("bg_downgrades = %d, want 1", n)
	}
	if _, err := f.Do(ctx, 0, Op{Code: OpBgTouch, Arg: 3}); err != nil {
		t.Fatalf("bg touch on downgraded session: %v", err)
	}
}

// Without pressure, the preferred paths are used and nothing downgrades.
func TestNoDowngradeWithoutPressure(t *testing.T) {
	f := openOptions(options{Devices: 1, Seed: 5, Backoff: &instantBackoff})
	defer f.Stop()
	ctx := context.Background()
	if _, err := f.Do(ctx, 0, Op{Code: OpLock, Prio: PrioHigh}); err != nil {
		t.Fatalf("lock: %v", err)
	}
	res, err := f.Do(ctx, 0, Op{Code: OpBgPinned})
	if err != nil || res.Session != "bg-pinned" {
		t.Fatalf("bg-pinned = %q, %v; want bg-pinned, nil", res.Session, err)
	}
	reg := f.Metrics()
	if n := reg.CounterValue(MetricCryptoDowngrades) + reg.CounterValue(MetricBgDowngrades); n != 0 {
		t.Fatalf("downgrades without pressure: %d", n)
	}
}

// Five wrong PINs deep-lock the device; the actor recovers it with a
// planned reboot instead of leaving it bricked.
func TestDeepLockRecovery(t *testing.T) {
	f := openOptions(options{Devices: 1, Seed: 5, Backoff: &instantBackoff})
	defer f.Stop()
	ctx := context.Background()
	if _, err := f.Do(ctx, 0, Op{Code: OpLock, Prio: PrioHigh}); err != nil {
		t.Fatalf("lock: %v", err)
	}
	for i := 0; i < kernel.MaxPINAttempts-1; i++ {
		_, err := f.Do(ctx, 0, Op{Code: OpBadPIN, Prio: PrioHigh})
		if !errors.Is(err, kernel.ErrBadPIN) {
			t.Fatalf("bad PIN %d: err = %v, want ErrBadPIN (and no retry)", i+1, err)
		}
	}
	// The fifth wrong PIN deep-locks; the actor reboots, the retry lands on
	// the fresh (unlocked) device where a wrong PIN is a no-op.
	if _, err := f.Do(ctx, 0, Op{Code: OpBadPIN, Prio: PrioHigh}); err != nil {
		t.Fatalf("deep-locking PIN attempt: %v, want recovery + success", err)
	}
	if n := f.Metrics().CounterValue(MetricRecoveryReboots); n != 1 {
		t.Fatalf("recovery_reboots = %d, want 1", n)
	}
	if b := f.DeviceHealth(0).Boots; b != 2 {
		t.Fatalf("boots = %d, want 2", b)
	}
	// Recovered device serves normally.
	if _, err := f.Do(ctx, 0, Op{Code: OpTouch, Arg: 1}); err != nil {
		t.Fatalf("touch after recovery: %v", err)
	}
}

// The watchdog flags an actor stuck in one request, on a fake clock with no
// wall sleeps in the assertions.
func TestWatchdogFlagsStalledActor(t *testing.T) {
	clk := NewFakeClock()
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	f := openOptions(options{
		Devices: 1, Seed: 5, Clock: clk,
		StallTimeout: 2 * time.Second, WatchdogEvery: 250 * time.Millisecond,
		Backoff: &instantBackoff,
		testExec: func(a *actor, op Op) (bool, Result, error) {
			if op.Code == OpRebootDrill {
				started <- struct{}{}
				<-block
			}
			return true, Result{State: "ok"}, nil
		},
	})

	go f.Do(context.Background(), 0, Op{Code: OpRebootDrill})
	<-started

	// March fake time forward; the watchdog needs StallTimeout to elapse and
	// one of its scan timers to fire after that.
	waitFor(t, func() bool {
		clk.Advance(250 * time.Millisecond)
		return testSlot(f, 0).stalled.Load()
	})
	if n := f.Metrics().CounterValue(MetricStalls); n != 1 {
		t.Fatalf("stalls = %d, want 1", n)
	}
	if !f.DeviceHealth(0).Stalled {
		t.Fatal("health does not report the stall")
	}
	if f.Ready() {
		t.Fatal("fleet with its only device stalled reports ready")
	}

	// Unstick the actor; the watchdog clears the flag.
	close(block)
	waitFor(t, func() bool {
		clk.Advance(250 * time.Millisecond)
		return !testSlot(f, 0).stalled.Load()
	})
	f.Stop()
	if f.Ready() {
		t.Fatal("stopped fleet reports ready")
	}
}

// The per-device sequence ledger stays contiguous across restarts.
func TestLedgerContiguousAcrossRestart(t *testing.T) {
	var calls atomic.Int64
	f := openOptions(options{
		Devices: 1, Seed: 5, MaxAttempts: 1, RestartBudget: 10, Backoff: &instantBackoff,
		testExec: func(a *actor, op Op) (bool, Result, error) {
			if op.Arg == 666 && calls.Add(1) == 3 {
				panic("mid-run crash")
			}
			return false, Result{}, nil
		},
	})
	ctx := context.Background()
	var recs []clientRec
	for i := 0; i < 6; i++ {
		res, err := f.Do(ctx, 0, Op{Code: OpTouch, Arg: 666})
		recs = append(recs, clientRec{opID: res.OpID, code: OpTouch, ok: err == nil, class: ErrorCode(err)})
	}
	f.Stop()

	ledger, err := f.Ledger(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ledger) != 6 {
		t.Fatalf("ledger has %d entries, want 6", len(ledger))
	}
	var last uint64
	succ := 0
	for _, e := range ledger {
		if e.Seq == 0 {
			continue
		}
		succ++
		if e.Seq != last+1 {
			t.Fatalf("seq gap: %d after %d", e.Seq, last)
		}
		last = e.Seq
	}
	if succ != 5 {
		t.Fatalf("%d successes, want 5 (one crash)", succ)
	}
	if probs := auditLedger(0, ledger, recs); len(probs) != 0 {
		t.Fatalf("auditLedger found problems in a clean ledger: %v", probs)
	}
}

// Stop drains queued requests with ErrShutdown instead of dropping them.
func TestStopDrainsWithShutdownError(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	f := openOptions(options{
		Devices: 1, Seed: 5, MailboxCap: 8, MaxAttempts: 1, Backoff: &instantBackoff,
		testExec: func(a *actor, op Op) (bool, Result, error) {
			if op.Code == OpRebootDrill {
				started <- struct{}{}
				<-block
			}
			return true, Result{State: "ok"}, nil
		},
	})
	go f.Do(context.Background(), 0, Op{Code: OpRebootDrill})
	<-started
	errCh := make(chan error, 1)
	go func() {
		_, err := f.Do(context.Background(), 0, Op{Code: OpPing})
		errCh <- err
	}()
	waitFor(t, func() bool { return queueLen(f, 0) == 1 })
	close(block)
	f.Stop()
	if err := <-errCh; err != nil && !errors.Is(err, ErrShutdown) {
		t.Fatalf("queued request after Stop = %v, want nil or ErrShutdown", err)
	}
	// New requests after Stop fail fast.
	if _, err := f.Do(context.Background(), 0, Op{Code: OpPing}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Do after Stop = %v, want ErrShutdown", err)
	}
}

// Open applies its functional options, and untouched devices cost nothing:
// a huge logical population opens instantly.
func TestOpenFunctionalOptions(t *testing.T) {
	f := Open(1_000_000,
		WithSeed(9),
		WithShards(4),
		WithResidentCap(8),
		WithMaxInflight(16),
	)
	defer f.Stop()
	if f.opt.Devices != 1_000_000 || f.opt.Seed != 9 || f.opt.MaxInflight != 16 {
		t.Fatalf("options not applied: %+v", f.opt)
	}
	if got := len(f.top.Load().shards); got != 4 {
		t.Fatalf("shards = %d, want 4", got)
	}
	total := 0
	for _, sh := range f.top.Load().shards {
		total += sh.cap
	}
	if total != 8 {
		t.Fatalf("summed shard caps = %d, want 8", total)
	}
	h, err := f.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Logical != 1_000_000 || h.Touched != 0 || h.Resident != 0 {
		t.Fatalf("fresh fleet health = %+v, want 10^6 logical, 0 touched", h)
	}
	if !h.Ready {
		t.Fatal("fresh fleet not ready")
	}
	// One op on a far-flung ID touches exactly one device.
	if _, err := f.Do(context.Background(), 999_999, Op{Code: OpPing}); err != nil {
		t.Fatalf("ping device 999999: %v", err)
	}
	h, _ = f.Health(context.Background())
	if h.Touched != 1 || h.Resident != 1 {
		t.Fatalf("after one op: touched=%d resident=%d, want 1,1", h.Touched, h.Resident)
	}
}

// waitFor polls cond (with a scheduling pause) until it holds or the test
// deadline budget runs out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
