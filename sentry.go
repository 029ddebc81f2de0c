// Package sentry is a full-system reproduction of "Protecting Data on
// Smartphones and Tablets from Memory Attacks" (Colp et al., ASPLOS 2015).
//
// Sentry guarantees that the sensitive state of selected applications and
// OS subsystems is never in cleartext in DRAM while a mobile device is
// screen-locked, defeating cold-boot, bus-monitoring, and DMA attacks.
// Because the mechanisms are kernel- and hardware-level (ARM iRAM, PL310
// L2 cache-way locking, TrustZone), this implementation builds the whole
// platform as a deterministic simulator — memory devices with a calibrated
// data-remanence model, an observable memory bus, a lockable cache, an
// MMU with young-bit traps, DMA engines, TrustZone, and boot firmware —
// and implements Sentry, AES On SoC, and the attacks against it.
//
// The five-minute tour:
//
//	dev, _ := sentry.Open(sentry.Tegra3, "4321")
//	app, _ := dev.Launch(sentry.Contacts(), true) // protected app
//	dev.Lock()                                     // encrypt-on-lock
//	dump, _ := dev.MountColdBoot(sentry.Reflash)   // steal the device
//	dump.ContainsSecret(...)                       // ciphertext only
//	dev.Unlock("4321")                             // lazy decrypt-on-demand
//
// Pass options to observe the run — sentry.WithTracer(sentry.NewTracer(0))
// records every bus transaction, cache-way lock, page seal/unseal, key
// event, and lock-state change; Device.Metrics() exposes the counter
// registry Stats is built from.
//
// Every table and figure of the paper's evaluation regenerates via
// Experiments (or the sentrybench command); see DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
package sentry

import (
	"fmt"

	"sentry/internal/apps"
	"sentry/internal/attack"
	"sentry/internal/bench"
	"sentry/internal/blockdev"
	"sentry/internal/core"
	"sentry/internal/dmcrypt"
	"sentry/internal/kernel"
	"sentry/internal/mem"
	"sentry/internal/obs"
	"sentry/internal/soc"
)

// Typed sentinel errors, testable with errors.Is on anything Device
// returns.
var (
	// ErrBadPIN: an unlock attempt presented the wrong PIN.
	ErrBadPIN = kernel.ErrBadPIN
	// ErrLocked: the lock state forbids the operation (unlocking a
	// deep-locked device, background sessions while unlocked, ...).
	ErrLocked = kernel.ErrLocked
	// ErrUnsupportedPlatform: the platform lacks the needed hardware
	// (probe points, cache locking, secure world, ...).
	ErrUnsupportedPlatform = soc.ErrUnsupported
)

// Platform selects a simulated hardware platform for Open.
type Platform int

// Platforms. Tegra3 is the paper's full prototype (cache locking,
// TrustZone, exposed bus and DMA port — a dev board is the attacker's
// friend); Nexus4 is the production phone (crypto accelerator, locked
// firmware, stacked DRAM).
const (
	Tegra3 Platform = iota
	Nexus4
)

func (p Platform) String() string {
	switch p {
	case Tegra3:
		return "tegra3"
	case Nexus4:
		return "nexus4"
	default:
		return fmt.Sprintf("Platform(%d)", int(p))
	}
}

// Tracer re-exports the observability event trace (see internal/obs).
type Tracer = obs.Tracer

// TraceEvent is one trace record.
type TraceEvent = obs.Event

// TraceKind classifies trace events.
type TraceKind = obs.Kind

// Trace event kinds.
const (
	TraceBusTxn      = obs.KindBusTxn
	TraceCacheLock   = obs.KindCacheLock
	TraceCacheUnlock = obs.KindCacheUnlock
	TracePageSeal    = obs.KindPageSeal
	TracePageUnseal  = obs.KindPageUnseal
	TraceKeyDerive   = obs.KindKeyDerive
	TraceKeyZeroize  = obs.KindKeyZeroize
	TraceIRQMask     = obs.KindIRQMask
	TraceDMAXfer     = obs.KindDMAXfer
	TraceAttackProbe = obs.KindAttackProbe
	TraceStateChange = obs.KindStateChange
)

// Metrics re-exports the metrics registry.
type Metrics = obs.Registry

// TraceSink receives admitted trace events.
type TraceSink = obs.Sink

// NewTracer returns an event tracer retaining the last size events
// (0 selects the default capacity). Pass it to Open via WithTracer.
func NewTracer(size int) *Tracer {
	if size <= 0 {
		size = obs.DefaultRingSize
	}
	return obs.NewTracer(size)
}

// NewJSONLSink and NewMemorySink build the two stock trace sinks;
// TraceMask builds the kind bitmask they and Tracer.SetKinds filter on;
// ReadTrace parses a JSONL trace back into events.
var (
	NewJSONLSink  = obs.NewJSONLSink
	NewMemorySink = obs.NewMemorySink
	TraceMask     = obs.Mask
	ReadTrace     = obs.ReadJSONL
)

// AllTraceKinds admits every event kind in a MemorySink or kind filter;
// TraceKindCount is the number of kinds (TraceKind(0) … TraceKind(TraceKindCount-1)).
const (
	AllTraceKinds  = obs.AllKinds
	TraceKindCount = obs.NumKinds
)

// Wake sources for Device.Wake.
const (
	WakeUser         = kernel.WakeUser
	WakeIncomingCall = kernel.WakeIncomingCall
	WakeTimer        = kernel.WakeTimer
)

// Config selects Sentry's mechanisms (see core.Config).
type Config = core.Config

// AppProfile describes a workload application.
type AppProfile = apps.Profile

// App is a launched application.
type App = apps.App

// BgProfile describes a background application.
type BgProfile = apps.BgProfile

// Stats counts Sentry activity.
type Stats = core.Stats

// ColdBootVariant selects a cold-boot attack flavour.
type ColdBootVariant = attack.ColdBootVariant

// Cold-boot variants.
const (
	OSReboot  = attack.OSReboot
	Reflash   = attack.Reflash
	HeldReset = attack.HeldReset
)

// Application profiles from the paper's evaluation.
var (
	Contacts = apps.Contacts
	Maps     = apps.Maps
	Twitter  = apps.Twitter
	MP3      = apps.MP3
	Alpine   = apps.Alpine
	Vlock    = apps.Vlock
	Xmms2    = apps.Xmms2
)

// Device is a simulated mobile device running Sentry: a hardware platform,
// the mini kernel, and the Sentry subsystem wired into its hooks.
type Device struct {
	SoC    *soc.SoC
	Kernel *kernel.Kernel
	Sentry *core.Sentry
}

// options collects what the Option functions configure.
type options struct {
	seed   int64
	cfg    Config
	tracer *obs.Tracer
	sinks  []obs.Sink
}

// Option configures Open.
type Option func(*options)

// WithSeed sets the simulation seed (default 1). Identical seeds produce
// bit-identical runs.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithConfig selects Sentry's mechanisms (cache-locked AES, background
// sessions, ...). The zero Config enables the paper's defaults.
func WithConfig(cfg Config) Option {
	return func(o *options) { o.cfg = cfg }
}

// WithTracer installs an event tracer on the device. Every component
// (bus, cache, MMU, DMA, kernel, Sentry, attacks) emits into it; read it
// back with Device.Trace().Snapshot() or stream it through sinks.
func WithTracer(t *Tracer) Option {
	return func(o *options) { o.tracer = t }
}

// WithMetricsSink attaches a trace sink (e.g. NewJSONLSink(w) or
// NewMemorySink(mask)) to the device's tracer; if no WithTracer is given
// a default-sized tracer is created to feed it.
func WithMetricsSink(sink TraceSink) Option {
	return func(o *options) { o.sinks = append(o.sinks, sink) }
}

// Open boots a simulated device running Sentry on the chosen platform.
// It is the front door of the package:
//
//	dev, err := sentry.Open(sentry.Tegra3, "4321",
//	        sentry.WithSeed(7), sentry.WithTracer(sentry.NewTracer(0)))
//
// Unknown platforms fail with ErrUnsupportedPlatform.
func Open(platform Platform, pin string, opts ...Option) (*Device, error) {
	o := options{seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	var s *soc.SoC
	switch platform {
	case Tegra3:
		s = soc.Tegra3(o.seed)
	case Nexus4:
		s = soc.Nexus4(o.seed)
	default:
		return nil, fmt.Errorf("sentry: unknown platform %v: %w", platform, ErrUnsupportedPlatform)
	}
	tr := o.tracer
	if tr == nil && len(o.sinks) > 0 {
		tr = obs.NewTracer(obs.DefaultRingSize)
	}
	for _, sink := range o.sinks {
		tr.AddSink(sink)
	}
	if tr != nil {
		s.Instrument(tr, obs.NewRegistry())
	}
	k := kernel.New(s, pin)
	sn, err := core.New(k, o.cfg)
	if err != nil {
		return nil, err
	}
	return &Device{SoC: s, Kernel: k, Sentry: sn}, nil
}

// Fork returns an independent copy of the device continuing from its exact
// current state: clock, energy meter, RNG position, kernel and Sentry state
// all carry over, and memory is shared copy-on-write with the parent, so a
// fork costs O(touched metadata) instead of a boot. Both devices stay fully
// usable and never observe each other's subsequent writes. The fleet service
// layer restores restarted devices from a post-boot fork; snapshot.Capture
// parks one for repeated forking.
func (d *Device) Fork() *Device {
	s2 := d.SoC.Fork()
	k2, pm := d.Kernel.Clone(s2)
	sn2, err := d.Sentry.Clone(k2, pm)
	if err != nil {
		panic(fmt.Sprintf("sentry: device fork failed: %v", err))
	}
	return &Device{SoC: s2, Kernel: k2, Sentry: sn2}
}

// FreezeBase pins the device as the immutable base of a fork population:
// memory stores are sealed and the L2 marked copy-on-write once, so
// concurrent Forks and Deflates against it never mutate it. The device must
// not execute anything afterwards. Idempotent.
func (d *Device) FreezeBase() { d.SoC.FreezeBase() }

// Deflate re-encodes the device's heavyweight platform state as a delta
// against a FreezeBase'd base device, keeping only memory pages and cache
// lines diverged from it (see soc.SoC.Deflate). The device must be parked —
// exclusively owned and never executed again; the next Fork reconstructs a
// byte-identical dense copy. Returns an estimate of the bytes retained.
func (d *Device) Deflate(base *Device) int64 { return d.SoC.Deflate(base.SoC) }

// FootprintBytes estimates the device's resting memory cost in its current
// encoding (dense, or the sparse delta after Deflate) — see
// soc.SoC.FootprintBytes.
func (d *Device) FootprintBytes() int64 { return d.SoC.FootprintBytes() }

// Trace returns the device's event tracer (nil unless Open was given
// WithTracer or WithMetricsSink).
func (d *Device) Trace() *Tracer { return d.SoC.Trace }

// Metrics returns the device's metrics registry: every component counter,
// gauge, and latency histogram, including the ones Stats is built from.
func (d *Device) Metrics() *Metrics { return d.Sentry.Metrics() }

// Launch starts an application; protected marks it sensitive so Sentry
// covers it at lock time.
func (d *Device) Launch(p AppProfile, protected bool) (*App, error) {
	return apps.Launch(d.Kernel, p, protected)
}

// LaunchBackground starts a background application (always protected).
func (d *Device) LaunchBackground(p BgProfile) (*App, error) {
	return apps.LaunchBackground(d.Kernel, p)
}

// Lock transitions the device to screen-locked, encrypting every protected
// application's memory.
func (d *Device) Lock() { d.Kernel.Lock() }

// Unlock attempts a PIN unlock; protected memory then decrypts lazily on
// first touch.
func (d *Device) Unlock(pin string) error { return d.Kernel.Unlock(pin) }

// BeginBackground lets app run while locked, paging its memory through
// lockedKB of pinned L2 so DRAM only ever sees ciphertext.
func (d *Device) BeginBackground(app *App, lockedKB int) error {
	return d.Sentry.BeginBackground(app.Proc, lockedKB)
}

// BeginBackgroundPinned is the §10 pin-on-SoC variant of BeginBackground:
// the on-SoC pool comes from dedicated iRAM instead of locked cache ways.
func (d *Device) BeginBackgroundPinned(app *App, poolPages int) error {
	return d.Sentry.BeginBackgroundPinned(app.Proc, poolPages)
}

// Suspend enters S3 (suspend-to-RAM); Wake leaves it. DRAM keeps
// refreshing through suspend — the reason lock-time encryption matters.
func (d *Device) Suspend() { d.Kernel.Suspend() }

// Wake resumes from suspend for the given wake source.
func (d *Device) Wake(src kernel.WakeSource) { d.Kernel.Wake(src) }

// ProtectKernelSubsystem registers an OS component's physical range for
// sealing at lock (the paper protects "applications and OS components").
func (d *Device) ProtectKernelSubsystem(name string, base mem.PhysAddr, size uint64) {
	d.Kernel.RegisterSensitiveKernelRange(name, kernel.Range{Base: base, Size: size})
}

// Stats returns Sentry's activity counters.
func (d *Device) Stats() Stats { return d.Sentry.Stats() }

// MountColdBoot attacks the device with the chosen cold-boot variant and
// returns the memory dump the attacker obtains.
func (d *Device) MountColdBoot(v ColdBootVariant) (*attack.Dump, error) {
	return attack.MountColdBoot(d.SoC, v)
}

// AttachBusMonitor clips a probe onto the external memory bus; everything
// crossing the SoC boundary from then on is captured. It fails with
// ErrUnsupportedPlatform on devices whose bus offers no probe points
// (package-on-package DRAM).
func (d *Device) AttachBusMonitor() (*attack.BusMonitor, error) {
	return attack.AttachBusMonitor(d.SoC)
}

// MountDMAScrape reads all reachable physical memory over DMA. It fails
// with ErrUnsupportedPlatform on devices exposing no open DMA port.
func (d *Device) MountDMAScrape() (*attack.DMAScrape, error) {
	return attack.MountDMAScrape(d.SoC)
}

// NewEncryptedDisk builds a dm-crypt volume over an in-memory partition of
// the given size, using the best registered cipher provider (register
// Sentry's with RegisterOnSoC first to get AES On SoC).
func (d *Device) NewEncryptedDisk(size uint64, key []byte) (*dmcrypt.DMCrypt, *blockdev.RAMDisk, error) {
	disk := blockdev.NewRAMDisk(d.SoC, size)
	dm, err := dmcrypt.New(disk, d.Kernel.Crypto, key)
	if err != nil {
		return nil, nil, err
	}
	return dm, disk, nil
}

// RegisterOnSoC registers Sentry's AES On SoC engine with the kernel
// Crypto API (highest priority), as the paper does for dm-crypt.
func (d *Device) RegisterOnSoC() { d.Sentry.RegisterOnSoC() }

// Experiment regenerates one of the paper's tables or figures.
type Experiment = bench.Experiment

// Report is a regenerated table/figure.
type Report = bench.Report

// Experiments returns every table/figure experiment, sorted by ID.
func Experiments() []Experiment { return bench.All() }

// ExperimentByID looks up one experiment ("table2" … "fig12", "anchors",
// "ablation-*").
func ExperimentByID(id string) (Experiment, bool) { return bench.ByID(id) }
