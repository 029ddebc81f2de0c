package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"sentry/internal/kernel"
)

// newHTTPFixture serves f over httptest and returns a Client speaking to it.
func newHTTPFixture(t *testing.T, f *Fleet) *HTTPClient {
	t.Helper()
	srv := httptest.NewServer(NewHandler(f))
	t.Cleanup(srv.Close)
	c := NewHTTPClient(srv.URL, srv.Client())
	t.Cleanup(func() { c.Close() })
	return c
}

// The HTTP transport is behaviourally identical to the in-process Fleet:
// same results, same ledger, same health — through the same Client interface.
func TestHTTPRoundTrip(t *testing.T) {
	f := Open(4, WithSeed(7))
	defer f.Stop()
	c := newHTTPFixture(t, f)
	ctx := context.Background()

	res, err := c.Do(ctx, 2, Op{Code: OpTouch, Arg: 9})
	if err != nil {
		t.Fatalf("remote touch: %v", err)
	}
	if res.OpID == 0 || res.Seq != 1 || res.Attempts != 1 {
		t.Fatalf("remote result = %+v, want op ID, seq 1, 1 attempt", res)
	}
	if _, err := c.Do(ctx, 2, Op{Code: OpDiskWrite, Arg: 3}); err != nil {
		t.Fatalf("remote disk write: %v", err)
	}

	// A batch executes in order on the same device.
	outs, err := c.DoBatch(ctx, 2, []Op{
		{Code: OpDiskRead, Arg: 3},
		{Code: OpLock, Prio: PrioHigh},
		{Code: OpPing},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(outs) != 3 {
		t.Fatalf("batch returned %d results", len(outs))
	}
	for i, o := range outs {
		if o.Code != CodeOK {
			t.Fatalf("batch op %d code %q: %s", i, o.Code, o.Error)
		}
	}
	if outs[2].State != "screen-locked" {
		t.Fatalf("ping after lock reports state %q, want screen-locked", outs[2].State)
	}

	// The remote ledger is the in-process ledger, byte for byte.
	remote, err := c.Ledger(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	local, err := f.Ledger(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remote, local) {
		t.Fatalf("ledger mismatch:\nremote: %+v\nlocal:  %+v", remote, local)
	}

	// Health agrees on both transports.
	rh, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lh, _ := f.Health(ctx)
	if rh != lh {
		t.Fatalf("health mismatch: remote %+v local %+v", rh, lh)
	}
	dh, err := c.DeviceHealth(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dh.ID != 2 || !dh.Touched || dh.Boots != 1 {
		t.Fatalf("remote device health = %+v", dh)
	}
}

// Typed errors survive the wire: errors.Is works identically against the
// HTTP client, for request-level statuses and per-op outcomes alike.
func TestHTTPTypedErrors(t *testing.T) {
	f := Open(2, WithSeed(7))
	defer f.Stop()
	c := newHTTPFixture(t, f)
	ctx := context.Background()

	// Unknown device → 404 → ErrUnknownDevice.
	if _, err := c.Do(ctx, 99, Op{Code: OpPing}); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("remote unknown device = %v, want ErrUnknownDevice", err)
	}
	// Domain error (wrong PIN on a locked device) rides per-op and maps back
	// to the kernel sentinel.
	if _, err := c.Do(ctx, 0, Op{Code: OpLock, Prio: PrioHigh}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(ctx, 0, Op{Code: OpBadPIN, Prio: PrioHigh}); !errors.Is(err, kernel.ErrBadPIN) {
		t.Fatalf("remote bad PIN = %v, want kernel.ErrBadPIN", err)
	}
}

// A background session needs a locked screen: bg-begin on an unlocked
// device is a domain answer with its own wire code, final on both
// transports. bg-touch without a session still answers locked.
func TestHTTPBgBeginNotLocked(t *testing.T) {
	f := Open(1, WithSeed(7))
	defer f.Stop()
	c := newHTTPFixture(t, f)
	ctx := context.Background()

	outs, err := c.DoBatch(ctx, 0, []Op{{Code: OpBgBegin}, {Code: OpBgTouch}})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Code != CodeNotLocked || outs[0].Attempts != 1 {
		t.Fatalf("bg-begin on an unlocked device = %q after %d attempts, want %q after 1",
			outs[0].Code, outs[0].Attempts, CodeNotLocked)
	}
	if outs[1].Code != CodeLocked {
		t.Fatalf("bg-touch with no session = %q, want %q", outs[1].Code, CodeLocked)
	}
	_, err = c.Do(ctx, 0, Op{Code: OpBgBegin})
	if !errors.Is(err, ErrNotLocked) || errors.Is(err, kernel.ErrLocked) {
		t.Fatalf("remote bg-begin on an unlocked device = %v, want ErrNotLocked only", err)
	}
	if !Permanent(err) {
		t.Fatal("remote ErrNotLocked is retryable")
	}
	if n := f.Metrics().CounterValue(MetricRetries); n != 0 {
		t.Fatalf("retries = %d, want 0", n)
	}
}

// Overload aborts the batch with 429 and comes back as a retryable typed
// ErrOverload.
func TestHTTPOverload(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	f := openOptions(Options{
		Devices: 2, Seed: 7, MaxInflight: 1, Backoff: &instantBackoff,
		testExec: func(a *actor, op Op) (bool, Result, error) {
			if op.Code == OpRebootDrill {
				started <- struct{}{}
				<-block
			}
			return true, Result{State: "ok"}, nil
		},
	})
	defer f.Stop()
	c := newHTTPFixture(t, f)

	go f.Do(context.Background(), 0, Op{Code: OpRebootDrill})
	<-started
	defer close(block)

	_, err := c.Do(context.Background(), 1, Op{Code: OpPing})
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("remote over the inflight limit = %v, want ErrOverload", err)
	}
	if !Transient(err) {
		t.Fatal("remote ErrOverload lost its transience")
	}
}

// Malformed requests are rejected with 400s, not executed.
func TestHTTPValidation(t *testing.T) {
	f := Open(1, WithSeed(7))
	defer f.Stop()
	srv := httptest.NewServer(NewHandler(f))
	defer srv.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var we WireError
		json.NewDecoder(resp.Body).Decode(&we)
		return resp.StatusCode
	}
	if s := post("/v1/devices/0/ops", `{"ops":[]}`); s != http.StatusBadRequest {
		t.Errorf("empty batch → %d, want 400", s)
	}
	if s := post("/v1/devices/0/ops", `not json`); s != http.StatusBadRequest {
		t.Errorf("bad json → %d, want 400", s)
	}
	if s := post("/v1/devices/0/ops", `{"ops":[{"code":"warp-core-breach"}]}`); s != http.StatusBadRequest {
		t.Errorf("unknown op → %d, want 400", s)
	}
	if s := post("/v1/devices/not-a-number/ops", `{"ops":[{"code":"ping"}]}`); s != http.StatusBadRequest {
		t.Errorf("bad device id → %d, want 400", s)
	}
	// Nothing above reached a device.
	if n := f.Metrics().CounterValue(MetricExecs); n != 0 {
		t.Fatalf("validation failures executed %d ops", n)
	}
}

// A body past maxBatchBytes is refused with 413 before it is decoded in
// full, and runs no op.
func TestHTTPOversizedBody(t *testing.T) {
	f := Open(1, WithSeed(7))
	defer f.Stop()
	srv := httptest.NewServer(NewHandler(f))
	defer srv.Close()

	const ops = 50_000
	var body strings.Builder
	body.WriteString(`{"ops":[`)
	for i := 0; i < ops; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"code":"touch","arg":%d}`, 10000+i)
	}
	body.WriteString(`]}`)
	if body.Len() <= maxBatchBytes {
		t.Fatalf("test body of %d bytes is within the %d-byte limit", body.Len(), maxBatchBytes)
	}

	resp, err := http.Post(srv.URL+"/v1/devices/0/ops", "application/json", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var we WireError
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
		t.Fatalf("413 body is not a WireError: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || we.Code != CodeOther || we.Error == "" {
		t.Fatalf("%d-byte body → %d %+v, want 413 with a WireError", body.Len(), resp.StatusCode, we)
	}
	if n := f.Metrics().CounterValue(MetricExecs); n != 0 {
		t.Fatalf("oversized body executed %d ops", n)
	}
}

// Every OpCode name round-trips through OpCodeByName — the wire alphabet
// covers the whole op set.
func TestOpCodeNamesRoundTrip(t *testing.T) {
	for code := OpPing; code <= OpRebootDrill; code++ {
		back, ok := OpCodeByName(code.String())
		if !ok || back != code {
			t.Errorf("op %v does not round-trip its name %q", code, code.String())
		}
	}
	if _, ok := OpCodeByName("nonsense"); ok {
		t.Error("OpCodeByName accepted nonsense")
	}
}
