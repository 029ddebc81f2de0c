// Package bus models the external memory bus between the SoC and the DRAM
// chips. Every transaction that leaves the SoC package — L2 line fills and
// write-backs, uncached CPU accesses, DMA transfers — crosses this bus and
// is therefore observable by a physically attached bus monitor (the probe
// attack of §3.1 of the paper). Traffic that stays on-SoC (iRAM accesses,
// cache hits) never appears here, which is precisely the property Sentry's
// on-SoC storage exploits.
package bus

import (
	"sentry/internal/mem"
	"sentry/internal/obs"
	"sentry/internal/sim"
)

// Op is a bus transaction direction.
type Op int

// Bus operations.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Read {
		return "R"
	}
	return "W"
}

// Transaction is one observable transfer on the external bus. Data is the
// transfer's own buffer, valid only during Observe (see Monitor).
type Transaction struct {
	Cycle     uint64
	Op        Op
	Addr      mem.PhysAddr
	Data      []byte
	Initiator string // "l2", "cpu-uncached", "dma0", ...
}

// Monitor receives every transaction on the bus. Implementations must not
// block; they model passive probes. tx.Data borrows the transfer's buffer:
// it is valid only until Observe returns, and Observe must not modify it.
// A monitor that keeps the payload copies it, as io.Writer's "must not
// retain p" asks.
type Monitor interface {
	Observe(tx Transaction)
}

// FaultInjector perturbs write transactions in flight. It is consulted only
// when one is attached (a single nil check otherwise), mirroring the
// slow-path gating of the observability layer.
type FaultInjector interface {
	// FilterWrite returns how many leading bytes of data actually reach the
	// device, in [0, len(data)]. Fewer than len(data) models a torn write:
	// power loss or a glitch interrupting the burst mid-transfer.
	FilterWrite(addr mem.PhysAddr, data []byte) int
}

// Stats aggregates bus traffic counters.
type Stats struct {
	Reads      uint64
	Writes     uint64
	BytesRead  uint64
	BytesWrote uint64
}

// Bus is the external memory bus. It forwards transfers to the devices in
// its address map, charges time and energy, and fans transactions out to
// attached monitors.
//
// A Bus belongs to exactly one platform and, like sim.Clock, is owned by a
// single goroutine (bench.RunAll isolates concurrent experiments with
// per-experiment platforms). observe is on the critical path of every
// off-SoC transfer, so the stats and monitor list are deliberately
// unsynchronised.
type Bus struct {
	clock    *sim.Clock
	meter    *sim.Meter
	costs    *sim.CostTable
	energy   *sim.EnergyTable
	devices  *mem.Map
	monitors []Monitor
	stats    Stats

	// dev caches the last device hit: bursts stream within one device, so
	// the map search is skipped on nearly every transfer. The cache is
	// revalidated by range check on every access, so it stays correct even
	// if devices are added later.
	dev *mem.Device

	// slow is true when any observer — tracer, counters, or monitors — is
	// attached; the transfer fast path checks just this one bool.
	slow bool

	// faults is nil unless a fault injector is attached.
	faults FaultInjector

	// Observability: all nil (and nil-safe) until SetObs wires them.
	trace      *obs.Tracer
	ctrReads   *obs.Counter
	ctrWrites  *obs.Counter
	ctrRdBytes *obs.Counter
	ctrWrBytes *obs.Counter
}

// New returns a bus over the given device map, charging the given cost and
// energy tables.
func New(clock *sim.Clock, meter *sim.Meter, costs *sim.CostTable, energy *sim.EnergyTable, devices *mem.Map) *Bus {
	return &Bus{clock: clock, meter: meter, costs: costs, energy: energy, devices: devices}
}

// Devices returns the bus's address map (the off-SoC devices).
func (b *Bus) Devices() *mem.Map { return b.devices }

// Clone returns a bus over the given clock, meter, and device map carrying
// this bus's traffic counters. Cost and energy tables are shared (they are
// immutable); monitors, fault injectors, and observability wiring are not
// carried — a forked world re-attaches its own.
func (b *Bus) Clone(clock *sim.Clock, meter *sim.Meter, devices *mem.Map) *Bus {
	n := New(clock, meter, b.costs, b.energy, devices)
	n.stats = b.stats
	return n
}

// SetObs wires the observability layer. Either argument may be nil; the
// emit points are nil-gated so a disabled layer costs one branch.
func (b *Bus) SetObs(tr *obs.Tracer, reg *obs.Registry) {
	b.trace = tr
	b.ctrReads = reg.Counter("bus.reads")
	b.ctrWrites = reg.Counter("bus.writes")
	b.ctrRdBytes = reg.Counter("bus.bytes_read")
	b.ctrWrBytes = reg.Counter("bus.bytes_wrote")
	b.reslow()
}

// reslow recomputes the slow-path gate after observer wiring changes.
func (b *Bus) reslow() {
	b.slow = b.trace != nil || b.ctrReads != nil || len(b.monitors) > 0
}

// SetFaults attaches (or, with nil, detaches) a fault injector.
func (b *Bus) SetFaults(f FaultInjector) { b.faults = f }

// Attach adds a monitor. Attaching a probe requires physical access; the
// attack packages call this to model the adversary.
func (b *Bus) Attach(m Monitor) {
	b.monitors = append(b.monitors, m)
	b.reslow()
}

// Detach removes a previously attached monitor.
func (b *Bus) Detach(m Monitor) {
	for i, x := range b.monitors {
		if x == m {
			b.monitors = append(b.monitors[:i], b.monitors[i+1:]...)
			b.reslow()
			return
		}
	}
}

// Stats returns a snapshot of the traffic counters.
func (b *Bus) Stats() Stats {
	return b.stats
}

// ResetStats zeroes the traffic counters.
func (b *Bus) ResetStats() {
	b.stats = Stats{}
}

func (b *Bus) charge(nbytes int) {
	words := uint64((nbytes + 3) / 4)
	b.clock.Advance(words * b.costs.DRAMAccess)
	b.meter.Charge(float64(words) * b.energy.DRAMAccessPJ)
}

// observe runs the slow observability path: counters, trace events, and
// monitor fan-out. The raw Stats increments happen inline in the transfer
// fast path; this is only reached when b.slow is set.
func (b *Bus) observe(op Op, initiator string, addr mem.PhysAddr, data []byte) {
	if op == Read {
		if b.ctrReads != nil {
			b.ctrReads.Inc()
			b.ctrRdBytes.Add(uint64(len(data)))
		}
	} else {
		if b.ctrWrites != nil {
			b.ctrWrites.Inc()
			b.ctrWrBytes.Add(uint64(len(data)))
		}
	}
	if tr := b.trace; tr != nil {
		tr.Emit(obs.Event{
			Cycle: b.clock.Cycles(),
			Kind:  obs.KindBusTxn,
			Addr:  uint64(addr),
			Size:  uint64(len(data)),
			Arg:   uint64(op),
			Label: initiator,
		})
	}
	if len(b.monitors) == 0 {
		return
	}
	tx := Transaction{Cycle: b.clock.Cycles(), Op: op, Addr: addr, Data: data, Initiator: initiator}
	for _, m := range b.monitors {
		m.Observe(tx)
	}
}

// find returns the device containing addr, consulting the one-entry device
// cache before falling back to the map search.
func (b *Bus) find(addr mem.PhysAddr) *mem.Device {
	if d := b.dev; d != nil && d.Contains(addr) {
		return d
	}
	d := b.devices.MustFind(addr)
	b.dev = d
	return d
}

// ReadInto performs a bus read of len(dst) bytes at addr on behalf of
// initiator, filling dst.
func (b *Bus) ReadInto(initiator string, addr mem.PhysAddr, dst []byte) {
	b.find(addr).Read(addr, dst)
	b.charge(len(dst))
	b.stats.Reads++
	b.stats.BytesRead += uint64(len(dst))
	if b.slow {
		b.observe(Read, initiator, addr, dst)
	}
}

// WriteFrom performs a bus write of src at addr on behalf of initiator.
// With a fault injector attached the write may be torn: only a prefix
// reaches the device (and the charge, stats, and monitors see the prefix —
// the rest of the burst never happened).
func (b *Bus) WriteFrom(initiator string, addr mem.PhysAddr, src []byte) {
	if f := b.faults; f != nil {
		if n := f.FilterWrite(addr, src); n < len(src) {
			src = src[:max(n, 0)]
		}
	}
	b.find(addr).Write(addr, src)
	b.charge(len(src))
	b.stats.Writes++
	b.stats.BytesWrote += uint64(len(src))
	if b.slow {
		b.observe(Write, initiator, addr, src)
	}
}
