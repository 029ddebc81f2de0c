package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"sentry"
	"sentry/internal/blockdev"
	"sentry/internal/check"
	"sentry/internal/core"
	"sentry/internal/dmcrypt"
	"sentry/internal/faults"
	"sentry/internal/kernel"
	"sentry/internal/mem"
	"sentry/internal/mmu"
	"sentry/internal/onsoc"
	"sentry/internal/remanence"
	"sentry/internal/snapshot"
	"sentry/internal/soc"
)

// dramArenaBase is where a degraded (generic) crypto provider places its
// DRAM arena: inside the kernel-reserved low 64 MB, clear of user frames.
const dramArenaBase = soc.DRAMBase + 0x100000

// OpCode enumerates the operations a hosted device serves.
type OpCode uint8

// Operation alphabet. Reboot drills are planned reboots (resilience
// exercise); they bump the boot count but are never charged against the
// fault-restart budget.
const (
	OpPing OpCode = iota
	OpLock
	OpUnlock
	OpBadPIN
	OpTouch
	OpBgBegin
	OpBgTouch
	OpBgPinned
	OpDiskWrite
	OpDiskRead
	OpRebootDrill
	numOps
)

var opNames = [numOps]string{
	"ping", "lock", "unlock", "bad-pin", "touch", "bg-begin", "bg-touch",
	"bg-pinned", "disk-write", "disk-read", "reboot-drill",
}

func (c OpCode) String() string {
	if int(c) < len(opNames) {
		return opNames[c]
	}
	return fmt.Sprintf("OpCode(%d)", int(c))
}

// OpCodeByName maps an op name (the String form) back to its code; ok is
// false for unknown names. The HTTP boundary uses it to parse requests.
func OpCodeByName(name string) (OpCode, bool) {
	for i, n := range opNames {
		if n == name {
			return OpCode(i), true
		}
	}
	return 0, false
}

// Op is one request against a hosted device.
type Op struct {
	Code OpCode
	Arg  uint64
	// Prio is the mailbox priority (PrioHigh/PrioNormal/PrioLow);
	// out-of-range values clamp to PrioNormal.
	Prio int
}

// LedgerEntry records one executed (non-ping) request on a device. Seq is
// assigned only on success and is contiguous per device across reboots —
// the sequence ledger the soak harness checks for lost or duplicated ops.
type LedgerEntry struct {
	OpID uint64 `json:"op_id"`
	Code OpCode `json:"code"`
	Seq  uint64 `json:"seq"`           // 0 on failure
	Err  string `json:"err,omitempty"` // "" on success
}

const (
	fgPages    = 8
	bgPages    = 16
	badPIN     = "0000"
	fuzzBudget = 4
)

// fleetMarker is the plaintext every hosted device plants in its sensitive
// processes; the confidentiality sweeps scan for it.
var fleetMarker = []byte("FLEET-SOAK-MARKER-XYZZY")

// device is one booted simulated device plus the workload state the actor
// drives on it. Everything here is owned by one goroutine at a time: the
// resident actor's, or — between park and hydrate — nobody's.
type device struct {
	dev     *sentry.Device
	pin     string
	marker  []byte
	volKey0 []byte // volatile root key as generated at the base boot

	fg, bg         *kernel.Process
	fgBase, bgBase mmu.VirtAddr
	bgOn           bool

	dm       *dmcrypt.DMCrypt
	disk     *blockdev.RAMDisk
	prov     *core.AESProvider
	diskKey  []byte
	diskDown bool // true when disk crypto degraded to the DRAM-arena provider
	shadow   map[uint64][]byte

	inj *faults.Injector

	// dead marks a device killed by a power cut that was not followed by a
	// reboot (quarantine); wasLockedAtCut scopes the post-mortem sweep.
	dead           bool
	wasLockedAtCut bool
}

// Fork returns an independent continuation of the device — world forked
// copy-on-write, processes re-mapped by PID, disk and crypto engine
// re-pointed at the forked stores, fault stream cloned at its position —
// so the fork replays exactly what the original would have done. It is
// what snapshot.Snapshot[*device] parks and hydrates.
func (d *device) Fork() *device {
	sd2 := d.dev.Fork()
	d2 := &device{
		dev:            sd2,
		pin:            d.pin,
		marker:         d.marker,
		volKey0:        d.volKey0,
		fgBase:         d.fgBase,
		bgBase:         d.bgBase,
		bgOn:           d.bgOn,
		diskKey:        d.diskKey,
		diskDown:       d.diskDown,
		shadow:         make(map[uint64][]byte, len(d.shadow)),
		dead:           d.dead,
		wasLockedAtCut: d.wasLockedAtCut,
	}
	d2.fg = sd2.Kernel.Process(d.fg.PID)
	d2.bg = sd2.Kernel.Process(d.bg.PID)
	for sec, buf := range d.shadow {
		d2.shadow[sec] = buf // written sectors are immutable once recorded
	}
	d2.disk = d.disk.Fork(sd2.SoC)
	prov, err := d.prov.Adopt(sd2.SoC, d.diskKey, sd2.Sentry.IRAM())
	if err != nil {
		panic(fmt.Sprintf("fleet: device fork: crypto adopt failed: %v", err))
	}
	d2.prov = prov
	d2.dm = d.dm.Refit(d2.disk, prov)
	if d.inj != nil {
		d2.inj = d.inj.Clone()
		d2.inj.Attach(sd2.Sentry)
	}
	return d2
}

// Deflate re-encodes a parked device as a delta against the fleet's frozen
// base world (see soc.SoC.Deflate): only the memory pages and cache lines
// that diverged from the shared post-boot image stay resident. The disk
// keeps its own store — its ciphertext is under a per-device key, so there
// is no shared base to delta against, and it is already sparse (written
// sectors only); it is charged to the returned footprint along with the
// sector shadow. Call only on a parked, exclusively owned device; the next
// Fork re-inflates a dense, byte-identical copy.
func (d *device) Deflate(base *sentry.Device) int64 {
	return d.dev.Deflate(base) + d.looseBytes()
}

// looseBytes is the device state outside the SoC: materialised disk sectors
// and the written-sector shadow.
func (d *device) looseBytes() int64 {
	var n int64
	if d.disk != nil {
		n = d.disk.ResidentBytes()
	}
	return n + int64(len(d.shadow))*(blockdev.SectorSize+16)
}

// actor hosts one resident device on one goroutine — the single-owner
// contract of the simulation (sim.Clock, sim.RNG, obs instruments) is
// preserved by construction, and enforced by the obs owner guard in
// debug/race builds. All requests arrive through the bounded mailbox;
// panics (fault-injected power loss or bugs) are recovered at the mailbox
// boundary and converted into a supervised restart. The actor is the
// ephemeral half of a device: identity (ledger, seq, breaker, budgets)
// lives on the slot and survives the actor's park/exit.
type actor struct {
	f  *Fleet
	sh *shard
	sl *slot

	mbox    *mailbox
	parkReq atomic.Bool
	// busySince is the clock nanos when the current request began; 0 when
	// idle. The watchdog reads it.
	busySince atomic.Int64

	d *device // actor-goroutine state
}

func newActor(f *Fleet, sh *shard, sl *slot) *actor {
	return &actor{f: f, sh: sh, sl: sl, mbox: newMailbox(f.opt.MailboxCap)}
}

// wake nudges the actor loop (park requests, shutdown).
func (a *actor) wake() {
	select {
	case a.mbox.ready <- struct{}{}:
	default:
	}
}

// call submits one request and waits for the reply or the caller deadline.
func (a *actor) call(ctx context.Context, op Op, opID uint64) (Result, error) {
	r := &request{op: op, ctx: ctx, opID: opID, reply: make(chan result, 1)}
	shedded, err := a.mbox.push(r, op.Prio)
	if shedded {
		a.f.ctrSheds.Inc()
	}
	if err != nil {
		if errors.Is(err, ErrShed) {
			a.f.ctrSheds.Inc()
		}
		return Result{}, err
	}
	select {
	case <-ctx.Done():
		return Result{}, ctx.Err()
	case res := <-r.reply:
		return res.res, res.err
	}
}

// run is the actor goroutine: hydrate (or boot), serve the mailbox, and
// exit by parking (eviction) or draining (shutdown).
func (a *actor) run() {
	defer a.f.actorWG.Done()
	if a.sl.parked != nil {
		a.hydrate()
	} else {
		a.reboot("initial boot")
	}
	for {
		select {
		case <-a.f.stop:
			a.exit()
			return
		case <-a.mbox.ready:
			if a.parkReq.Load() {
				a.park()
				return
			}
			for r := a.mbox.pop(); r != nil; r = a.mbox.pop() {
				a.handle(r)
				select {
				case <-a.f.stop:
					a.exit()
					return
				default:
				}
			}
		}
	}
}

// exit is the shutdown path: fail queued requests, and complete a pending
// park hand-off so no acquirer stays blocked on sl.wait.
func (a *actor) exit() {
	for _, r := range a.mbox.close(ErrShutdown) {
		r.reply <- result{err: ErrShutdown}
	}
	if a.parkReq.Load() {
		a.park()
	}
}

// hydrate restores the device from the slot's parked snapshot: a fork, not
// a boot — byte-identical to having stayed resident, and never counted as
// a boot.
func (a *actor) hydrate() {
	d := a.sl.parked.Fork()
	d.dev.Metrics().BindOwner()
	a.d = d
	a.f.ctrHydrations.Inc()
}

// park is the eviction path: deflate the live world to a delta against the
// fleet's shared base and adopt it into the slot's snapshot (no copy; the
// next hydration forks a dense reconstruction), so a parked device rests at
// O(divergence from base) instead of O(everything it ever touched). A live
// world implies a prior boot, so baseDev is published (the booting actor's
// baseOnce.Do happened-before this park). A dead or boot-failed world is
// discarded instead — its terminal state is already recorded on the slot,
// and a quarantined slot never re-instantiates.
func (a *actor) park() {
	for _, r := range a.mbox.close(ErrShed) {
		r.reply <- result{err: ErrShed}
	}
	var bytes int64
	if a.d != nil && !a.d.dead {
		a.sl.parked, bytes = snapshot.CaptureDelta[*device, *sentry.Device](a.d, a.f.baseDev)
	} else {
		a.sl.parked = nil
	}
	a.f.gParkedBytes.Add(bytes - a.sl.parkedBytes)
	a.sl.parkedBytes = bytes
	a.d = nil
	a.sh.parkDone(a.sl)
}

// handle executes one request, maintains the sequence ledger, and replies.
func (a *actor) handle(r *request) {
	if err := r.ctx.Err(); err != nil {
		r.reply <- result{err: err}
		return
	}
	if a.sl.quarantined.Load() {
		r.reply <- result{err: fmt.Errorf("fleet: device %d: %w", a.sl.id, ErrQuarantined)}
		return
	}
	a.busySince.Store(a.f.clock.Now().UnixNano())
	res, err := a.execGuarded(r)
	a.busySince.Store(0)
	a.f.ctrExecs.Inc()
	if r.op.Code != OpPing { // pings are health probes, not state ops
		entry := LedgerEntry{OpID: r.opID, Code: r.op.Code}
		if err == nil {
			a.sl.seq++
			entry.Seq = a.sl.seq
			res.Seq = a.sl.seq
		} else {
			entry.Err = err.Error()
		}
		a.sl.mu.Lock()
		a.sl.ledger = append(a.sl.ledger, entry)
		a.sl.mu.Unlock()
	}
	r.reply <- result{res: res, err: err}
}

// execGuarded runs exec under the panic boundary: any panic — a
// faults.Abort modelling power loss, or a plain bug — is converted into a
// supervised restart (or quarantine once the budget is spent).
func (a *actor) execGuarded(r *request) (res Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = Result{}, a.recoverPanic(rec)
		}
	}()
	if a.f.opt.testExec != nil {
		if handled, v, e := a.f.opt.testExec(a, r.op); handled {
			return v, e
		}
	}
	if a.d == nil || a.d.dead {
		return Result{}, fmt.Errorf("fleet: device %d has no live boot: %w", a.sl.id, ErrDeviceRestarted)
	}
	return a.exec(r.op)
}

// recoverPanic is the supervision policy. A faults.Abort is an injected
// power loss: apply the cut to the SoC, post-mortem the corpse if it was
// locked (the confidentiality invariant must hold over the decayed image),
// and reboot. Any other panic is a bug in the device stack: isolate it the
// same way. Either way the restart is charged to the budget; exceeding it
// quarantines the device.
func (a *actor) recoverPanic(rec any) error {
	var cause string
	if ab, ok := rec.(faults.Abort); ok {
		cause = "fault: " + ab.String()
		if a.d != nil && !a.d.dead {
			wasLocked := a.d.dev.Kernel.State() != kernel.Unlocked
			a.d.dev.SoC.PowerCut(ab.Seconds, remanence.RoomTempC)
			a.d.dead, a.d.wasLockedAtCut = true, wasLocked
			if wasLocked {
				a.scanCorpse("power loss (" + ab.Reason + ")")
			}
		}
	} else {
		cause = fmt.Sprintf("panic: %v", rec)
		if a.d != nil {
			a.d.dead, a.d.wasLockedAtCut = true, false
		}
	}
	a.sl.addCause(cause)
	a.f.ctrRestarts.Inc()
	if a.sl.restarts.Add(1) > int64(a.f.opt.RestartBudget) {
		a.sl.quarantined.Store(true)
		a.f.ctrQuarantines.Inc()
		return fmt.Errorf("fleet: device %d: restart budget exhausted (%s): %w", a.sl.id, cause, ErrQuarantined)
	}
	a.reboot(cause)
	return fmt.Errorf("fleet: device %d: %s: %w", a.sl.id, cause, ErrDeviceRestarted)
}

// reboot boots a fresh device, forked from the fleet's shared post-boot
// snapshot. Boot failure is terminal: the device is quarantined (nothing a
// retry could change about a deterministic boot).
func (a *actor) reboot(why string) {
	a.sl.boots.Add(1)
	d, err := a.bootDevice()
	if err != nil {
		a.d = nil
		a.sl.quarantined.Store(true)
		a.f.ctrQuarantines.Inc()
		a.sl.addCause(fmt.Sprintf("boot failed (%s): %v", why, err))
		return
	}
	a.d = d
	if d.diskDown {
		a.f.ctrCryptoDowngrades.Inc()
	}
}

// scanCorpse runs the shared post-mortem confidentiality clauses over the
// power-cut image; scanner returns carry no schedule context, so tag them
// with the device here.
func (a *actor) scanCorpse(why string) {
	if v := deviceScanner(a.d).PostMortem(why); v != nil {
		a.sl.addViolation(fmt.Sprintf("device %d: clause %s: %s", a.sl.id, v.Clause, v.Detail))
	}
}

func deviceScanner(d *device) *check.Scanner {
	return &check.Scanner{
		S: d.dev.SoC, K: d.dev.Kernel,
		Marker: d.marker, VolKey0: d.volKey0, FuzzBudget: fuzzBudget,
	}
}

func (sl *slot) addCause(cause string) {
	sl.mu.Lock()
	sl.causes = append(sl.causes, cause)
	sl.mu.Unlock()
}

func (sl *slot) addViolation(v string) {
	sl.mu.Lock()
	sl.violations = append(sl.violations, v)
	sl.mu.Unlock()
}

// baseBootSeed derives the simulation seed of the fleet's shared base
// world from the fleet seed.
func baseBootSeed(fleetSeed int64) int64 {
	h := splitmix64(splitmix64(uint64(fleetSeed)) ^ 0x5851f42d4c957f2d)
	return int64(h &^ (1 << 63))
}

// bootSeed derives a per-device seed from the fleet seed; it feeds the
// device's disk key and fault stream, which is where per-device divergence
// comes from (the base world itself is shared).
func bootSeed(fleetSeed int64, id DeviceID) int64 {
	h := splitmix64(uint64(fleetSeed))
	h = splitmix64(h ^ uint64(id))
	return int64(h &^ (1 << 63)) // keep it positive for readable logs
}

// deviceVolKey derives device id's volatile root key from the base image's
// boot-generated key: fold the base key and id through splitmix64 and expand
// the stream to key length. Deterministic per (base key, id) — a reboot
// re-derives the identical key — and distinct across ids.
func deviceVolKey(base []byte, id DeviceID) []byte {
	var h uint64
	for _, b := range base {
		h = splitmix64(h ^ uint64(b))
	}
	h = splitmix64(h ^ uint64(id))
	key := make([]byte, len(base))
	for i := 0; i < len(key); i += 8 {
		h = splitmix64(h)
		for j := 0; j < 8 && i+j < len(key); j++ {
			key[i+j] = byte(h >> (8 * j))
		}
	}
	return key
}

// bootDevice builds one fresh simulated device with the fleet workload: a
// sensitive foreground and background process filled with the plaintext
// marker, an encrypted disk, and (when configured) a fault injector. The
// platform boot itself is shared — every device forks the fleet's one base
// snapshot (built lazily by the first boot anywhere in the fleet) — and
// only the per-device setup below runs per boot.
func (a *actor) bootDevice() (*device, error) {
	opt, id := a.f.opt, a.sl.id
	seed := bootSeed(opt.Seed, id)
	base, err := a.f.baseSnapshot()
	if err != nil {
		return nil, err
	}
	sd := base.Fork()
	// The actor goroutine owns this device; bind the metrics registry so
	// debug/race builds catch any cross-goroutine wiring.
	sd.Metrics().BindOwner()

	// Stamp a per-device volatile key over the shared boot image, before
	// anything seals. The derivation is deterministic in (base key, id), so
	// every reboot of this device regenerates the same key while no two
	// devices share one — capturing a fleet-wide key from one parked delta
	// must not unlock its neighbours.
	if err := sd.Sentry.Rekey(deviceVolKey(sd.Sentry.Keys().VolatileKey(), id)); err != nil {
		return nil, err
	}

	d := &device{
		dev:     sd,
		pin:     opt.PIN,
		marker:  fleetMarker,
		volKey0: append([]byte(nil), sd.Sentry.Keys().VolatileKey()...),
		shadow:  make(map[uint64][]byte),
	}
	d.fg = sd.Kernel.NewProcess("fg", true, false)
	d.bg = sd.Kernel.NewProcess("bg", true, true)
	if d.fgBase, err = sd.Kernel.MapAnon(d.fg, fgPages); err != nil {
		return nil, err
	}
	if d.bgBase, err = sd.Kernel.MapAnon(d.bg, bgPages); err != nil {
		return nil, err
	}
	if err := fill(d, d.fg, d.fgBase, fgPages); err != nil {
		return nil, err
	}
	if err := fill(d, d.bg, d.bgBase, bgPages); err != nil {
		return nil, err
	}

	// Graceful-degradation pressure: on squeezed devices, occupy iRAM down
	// to a sliver so per-volume engines and pinned pools must fall back.
	if opt.SqueezeEvery > 0 && (uint64(id)+1)%uint64(opt.SqueezeEvery) == 0 {
		if free := sd.Sentry.IRAM().Free(); free > 256 {
			if _, err := sd.Sentry.IRAM().Alloc(free - 256); err != nil {
				return nil, err
			}
		}
	}

	if err := d.buildDisk(seed); err != nil {
		return nil, err
	}

	if opt.Faults.Active() {
		d.inj = faults.New(opt.Faults, seed|1)
		d.inj.Attach(sd.Sentry)
	}
	return d, nil
}

func fill(d *device, p *kernel.Process, base mmu.VirtAddr, pages int) error {
	d.dev.Kernel.Switch(p)
	for i := 0; i < pages; i++ {
		line := append(append([]byte{}, d.marker...), byte(i))
		if err := d.dev.SoC.CPU.Store(base+mmu.VirtAddr(i*mem.PageSize), line); err != nil {
			return fmt.Errorf("fleet: marker fill: %v", err)
		}
	}
	return nil
}

// buildDisk creates the device's dm-crypt volume. The preferred engine is a
// dedicated AES On SoC instance in iRAM; when iRAM is exhausted the volume
// degrades to the generic DRAM-arena provider — the classic dm-crypt
// configuration — and the downgrade is counted, never hidden.
func (d *device) buildDisk(seed int64) error {
	key := make([]byte, 16)
	h := uint64(seed)
	for i := range key {
		h = splitmix64(h)
		key[i] = byte(h)
	}
	d.diskKey = key
	eng, err := onsoc.NewInIRAM(d.dev.SoC, d.dev.Sentry.IRAM(), key)
	switch {
	case err == nil:
		d.prov = core.NewOnSoCProvider(eng)
	case errors.Is(err, onsoc.ErrIRAMExhausted):
		gp, gerr := core.NewGenericProvider(d.dev.SoC, dramArenaBase, key)
		if gerr != nil {
			return gerr
		}
		d.prov = gp
		d.diskDown = true
	default:
		return err
	}
	d.disk = blockdev.NewRAMDisk(d.dev.SoC, diskKB<<10)
	dm, err := dmcrypt.NewWithProvider(d.disk, d.prov, key)
	if err != nil {
		return err
	}
	d.dm = dm
	return nil
}

// exec runs one operation against the live device. It runs on the actor
// goroutine under the panic boundary; fault hooks may unwind it at any
// point with a faults.Abort.
func (a *actor) exec(op Op) (Result, error) {
	d := a.d
	k := d.dev.Kernel
	switch op.Code {
	case OpPing:
		return Result{State: k.State().String()}, nil

	case OpLock:
		k.Lock()
		return Result{}, nil

	case OpUnlock:
		if err := k.Unlock(d.pin); err != nil {
			return a.unlockFailed(err)
		}
		d.bgOn = false // the session ends inside Unlock
		return Result{}, nil

	case OpBadPIN:
		if err := k.Unlock(badPIN); err != nil {
			return a.unlockFailed(err)
		}
		return Result{}, nil // device was already unlocked: a PIN-less no-op

	case OpTouch:
		if k.State() != kernel.Unlocked {
			return Result{}, fmt.Errorf("fleet: touch on a locked device: %w", kernel.ErrLocked)
		}
		k.Switch(d.fg)
		return Result{}, d.verifyPage(d.fgBase, int(op.Arg)%fgPages, "fg")

	case OpBgBegin:
		return a.beginBg(false)

	case OpBgPinned:
		return a.beginBg(true)

	case OpBgTouch:
		if !d.bgOn {
			return Result{}, fmt.Errorf("fleet: no background session: %w", kernel.ErrLocked)
		}
		k.Switch(d.bg)
		return Result{}, d.verifyPage(d.bgBase, int(op.Arg)%bgPages, "bg")

	case OpDiskWrite:
		sec := op.Arg % d.dm.Sectors()
		buf := sectorPattern(a.sl.id, sec, op.Arg)
		if err := d.dm.WriteSector(sec, buf); err != nil {
			return Result{}, err
		}
		d.shadow[sec] = buf
		return Result{}, nil

	case OpDiskRead:
		sec := op.Arg % d.dm.Sectors()
		dst := make([]byte, blockdev.SectorSize)
		if err := d.dm.ReadSector(sec, dst); err != nil {
			return Result{}, err
		}
		if want, ok := d.shadow[sec]; ok && !bytes.Equal(dst, want) {
			return Result{}, fmt.Errorf("fleet: device %d disk sector %d corrupted", a.sl.id, sec)
		}
		return Result{}, nil

	case OpRebootDrill:
		a.f.ctrDrills.Inc()
		a.reboot("reboot drill")
		if a.d == nil {
			return Result{}, fmt.Errorf("fleet: device %d failed to boot after drill: %w", a.sl.id, ErrQuarantined)
		}
		return Result{Rebooted: true}, nil
	}
	return Result{}, fmt.Errorf("fleet: unknown op code %d", op.Code)
}

// unlockFailed post-processes a failed Unlock. Deep lock is terminal short
// of a power cycle, so the actor performs a planned recovery reboot — the
// graceful path out of an otherwise bricked device — and reports the
// request as retryable.
func (a *actor) unlockFailed(err error) (Result, error) {
	if a.d.dev.Kernel.State() == kernel.DeepLocked {
		a.f.ctrRecoveries.Inc()
		a.reboot("deep-lock recovery")
		if a.d == nil {
			return Result{}, fmt.Errorf("fleet: device %d failed deep-lock recovery: %w", a.sl.id, ErrQuarantined)
		}
		return Result{}, fmt.Errorf("fleet: device %d deep-locked; recovered by reboot: %w", a.sl.id, ErrDeviceRestarted)
	}
	return Result{}, err
}

// beginBg starts a background session. The pinned (§10 pin-on-SoC) variant
// degrades to the locked-way session when iRAM is exhausted.
func (a *actor) beginBg(pinned bool) (Result, error) {
	d := a.d
	if d.dev.Kernel.State() == kernel.Unlocked {
		return Result{}, fmt.Errorf("fleet: background sessions need a locked device: %w", ErrNotLocked)
	}
	if d.bgOn {
		return Result{Session: "bg-already-on"}, nil
	}
	if pinned {
		err := d.dev.Sentry.BeginBackgroundPinned(d.bg, 4)
		if err == nil {
			d.bgOn = true
			return Result{Session: "bg-pinned"}, nil
		}
		if !errors.Is(err, onsoc.ErrIRAMExhausted) {
			return Result{}, err
		}
		if err := d.dev.Sentry.BeginBackground(d.bg, 128); err != nil {
			return Result{}, err
		}
		a.f.ctrBgDowngrades.Inc()
		d.bgOn = true
		return Result{Session: "bg-pinned-downgraded"}, nil
	}
	if err := d.dev.Sentry.BeginBackground(d.bg, 128); err != nil {
		return Result{}, err
	}
	d.bgOn = true
	return Result{Session: "bg"}, nil
}

// verifyPage reads the marker line of one page and checks integrity — the
// fleet's benign fault profile must never corrupt data.
func (d *device) verifyPage(base mmu.VirtAddr, pg int, what string) error {
	got := make([]byte, len(d.marker))
	if err := d.dev.SoC.CPU.Load(base+mmu.VirtAddr(pg*mem.PageSize), got); err != nil {
		return fmt.Errorf("fleet: %s page %d unreadable: %v", what, pg, err)
	}
	if !bytes.Equal(got, d.marker) {
		return fmt.Errorf("fleet: %s page %d corrupted", what, pg)
	}
	return nil
}

// sectorPattern derives a deterministic 512-byte payload for a disk write.
func sectorPattern(id DeviceID, sec, arg uint64) []byte {
	buf := make([]byte, blockdev.SectorSize)
	h := splitmix64(uint64(id)<<32 ^ sec<<16 ^ arg)
	for i := range buf {
		if i%8 == 0 {
			h = splitmix64(h)
		}
		buf[i] = byte(h >> (8 * (i % 8)))
	}
	return buf
}

// sweep runs the end-of-run confidentiality check on a device's final
// world: lock it (faults detached first so the lock cannot be interrupted),
// scan the live locked image, then cut power and post-mortem the remanence
// image. Called from the harness goroutine after Stop — for a parked slot
// the caller passes a fork of the parked snapshot, byte-identical to the
// world the device would have presented had it stayed resident. The
// registry owner is re-bound here — a deliberate hand-off.
func (sl *slot) sweep(d *device) {
	if d == nil || d.dead {
		// A quarantined corpse was already post-mortemed at the cut if it
		// was locked; an unlocked corpse is the accepted pre-lock window.
		return
	}
	d.dev.Metrics().BindOwner()
	if d.inj != nil {
		faults.Detach(d.dev.Sentry)
		d.inj = nil
	}
	if d.dev.Kernel.State() == kernel.Unlocked {
		d.dev.Kernel.Lock()
	}
	if v := deviceScanner(d).ScanLive(); v != nil {
		sl.addViolation(fmt.Sprintf("device %d (sweep): clause %s: %s", sl.id, v.Clause, v.Detail))
	}
	d.dev.SoC.PowerCut(0.05, remanence.RoomTempC)
	d.dead, d.wasLockedAtCut = true, true
	if v := deviceScanner(d).PostMortem("post-soak power cut"); v != nil {
		sl.addViolation(fmt.Sprintf("device %d: clause %s: %s", sl.id, v.Clause, v.Detail))
	}
}
