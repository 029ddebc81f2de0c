// Package explore turns the seeded campaign checker into a prefix-sharing
// schedule explorer: a tree of schedule prefixes whose interior nodes park
// forkable snapshots, so sweeping N schedules costs ~N op executions
// instead of the seed-replay path's boot-plus-full-replay per schedule.
//
// Every tree node is one checked schedule — its path from the root, with
// the invariant scanned after the final op exactly as check.World.Apply
// scans after every step — so "schedules" below always means tree nodes.
// The tree's shape is a pure function of (Config, Seed, Budget): children
// are drawn from the campaign's own op generator seeded by a rolling path
// hash, and budget is split deterministically among subtrees. Exploration
// order is the only thing the worker count changes; the explored set, the
// canonical violation, and the coverage hash are byte-identical at -j 1
// and -j N (equivalence_test.go holds this under -race).
//
// Node lifecycle: chains (single-child nodes) drive the live world forward
// inline and never fork. Branch nodes park their world via snapshot.Adopt;
// each child consumes one reference, the last by an O(1) HandOff instead
// of a fork. A bounded LRU keeps at most SnapBudget parked snapshots
// resident; evicted nodes are re-derived on demand by forking the nearest
// live ancestor and replaying the ops between — correctness never depends
// on what the LRU kept, only wall-clock does.
package explore

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"container/list"

	"sentry/internal/check"
	"sentry/internal/obs"
	"sentry/internal/sim"
	"sentry/internal/snapshot"
)

// Config parameterises one exploration.
type Config struct {
	// Check is the world configuration (platform, defences, faults). Its
	// OpsCounter field is overridden by the explorer's own counter.
	Check check.Config
	// Seed roots the deterministic tree; sibling trees come from sibling
	// seeds exactly like campaign seeds.
	Seed int64
	// Budget is how many schedules (tree nodes) to explore. Default 4096.
	Budget int
	// Branch bounds the children drawn per node. Default 4.
	Branch int
	// Depth bounds schedule length; DefaultDepth when zero. Deliberately
	// deeper than a campaign's check.DefaultSteps: long schedules are
	// where prefix sharing pays, and the tree's cost per schedule does
	// not grow with depth the way seed replay's does.
	Depth int
	// Workers sizes the work-stealing pool; GOMAXPROCS when zero.
	Workers int
	// SnapBudget bounds resident parked snapshots (min 1). Default 256.
	SnapBudget int
	// Corpus holds interesting prefixes from earlier runs, replayed —
	// and re-checked — before the sweep starts.
	Corpus []check.Schedule
	// Registry, when set, receives the explorer's counters at the end of
	// the run under the explore.* namespace.
	Registry *obs.Registry
}

// MaxCorpus caps how many banked prefixes a run emits.
const MaxCorpus = 64

// DefaultDepth bounds schedule length when Config.Depth is zero. In
// practice chains die of schedule mortality (terminal ops, dead worlds)
// around depth ~100, so the cap protects against pathological op mixes
// without truncating the organic depth distribution.
const DefaultDepth = 200

// Result reports one exploration. The fields above the perf marker are
// deterministic: identical for the same (Config minus Workers/SnapBudget)
// at any worker count and any snapshot budget.
type Result struct {
	// Schedules is the number of distinct prefixes checked (tree nodes
	// plus corpus replay steps); the throughput unit of BENCH_wallclock's
	// explore record.
	Schedules uint64
	// Leaves counts schedules that ended: death, violation, depth or
	// budget exhaustion.
	Leaves uint64
	// PORPrunes counts child edges dropped by the commutation rule.
	PORPrunes uint64
	// MaxDepth is the longest explored prefix.
	MaxDepth int
	// Violations counts violating schedules found (the tree keeps
	// exploring other subtrees after a violation, like a campaign keeps
	// running later seeds).
	Violations int
	// Sched is the canonically smallest violating schedule, nil if none.
	Sched check.Schedule
	// Repro is Sched shrunk to a minimal reproducer via the tree's root
	// checkpoint.
	Repro *check.Repro
	// NearMisses counts dead leaves whose post-mortem image was within
	// the relaxed decay budget of a violation.
	NearMisses uint64
	// CoverageHash folds every explored prefix's path hash with XOR — an
	// order-independent fingerprint of the explored set.
	CoverageHash uint64
	// Corpus is the sorted, deduplicated bank of violation and near-miss
	// prefixes as replayable repro lines.
	Corpus []string

	// Perf fields — vary with Workers, SnapBudget, and timing.

	// SnapshotHits counts worlds obtained from a live parked ancestor;
	// HandOffs is the subset that took the O(1) last-consumer path.
	SnapshotHits uint64
	HandOffs     uint64
	// Replays counts worlds re-derived past an evicted snapshot;
	// ReplayedOps is the ops re-executed doing so.
	Replays     uint64
	ReplayedOps uint64
	// Evictions counts parked snapshots dropped by the LRU.
	Evictions uint64
	// PeakResident is the high-water mark of parked snapshots.
	PeakResident int
	// OpsExecuted counts every op applied by any world of this run
	// (tree driving, corpus replays, re-derivations, shrinking).
	OpsExecuted uint64
	// Elapsed is the wall-clock of the phase the mode measures: the whole
	// run for Run, only the replay phase for Baseline.
	Elapsed time.Duration
}

// node is one explored prefix. Nodes point only at their parent, so a
// finished subtree is garbage the moment its last task completes; the
// bounded LRU is the only thing that retains interior nodes.
type node struct {
	parent *node
	op     check.Op
	depth  int
	hash   uint64 // rolling path hash; seeds the child draw

	mu   sync.Mutex
	snap *snapshot.Snapshot[*check.World]
	refs int // children yet to consume snap

	elem *list.Element // LRU slot; guarded by explorer.lruMu
}

// task is one unit of frontier work: materialise n's world and drive its
// subtree within quota nodes (n included).
type task struct {
	n     *node
	quota int
}

type worker struct {
	id       int
	cov      uint64 // XOR-fold of visited path hashes
	maxDepth int
}

type violationRec struct {
	sched check.Schedule
	v     *check.Violation
}

type explorer struct {
	cfg        Config
	ccfg       check.Config // cfg.Check with the ops counter attached
	depth      int
	branch     int
	snapBudget int

	root     *node
	rootSnap *snapshot.Snapshot[*check.World]
	opsExec  *obs.Counter

	collectPaths bool

	fmu     sync.Mutex
	fcond   *sync.Cond
	deques  [][]task
	pending int

	lruMu sync.Mutex
	lru   *list.List
	peak  int

	resMu      sync.Mutex
	violations []violationRec
	bank       map[string]struct{}
	paths      []check.Schedule

	schedules, leaves, prunes, nearMisses    atomic.Uint64
	snapHits, handOffs, replays, replayedOps atomic.Uint64
	evictions                                atomic.Uint64

	// Folded from the per-worker accumulators after the pool drains.
	covFold      uint64
	maxDepthFold int
}

// childSalt decorrelates the child-draw RNG from the coverage hash.
const childSalt = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finaliser — the rolling path hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (c *Config) normalise() {
	if c.Budget <= 0 {
		c.Budget = 4096
	}
	if c.Branch <= 0 {
		c.Branch = 4
	}
	if c.Depth <= 0 {
		c.Depth = DefaultDepth
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SnapBudget <= 0 {
		c.SnapBudget = 256
	}
}

func newExplorer(cfg Config, collectPaths bool) *explorer {
	cfg.normalise()
	e := &explorer{
		cfg:          cfg,
		depth:        cfg.Depth,
		branch:       cfg.Branch,
		snapBudget:   cfg.SnapBudget,
		opsExec:      &obs.Counter{},
		collectPaths: collectPaths,
		lru:          list.New(),
		bank:         map[string]struct{}{},
	}
	e.fcond = sync.NewCond(&e.fmu)
	e.ccfg = cfg.Check
	e.ccfg.OpsCounter = e.opsExec
	e.root = &node{hash: mix64(uint64(cfg.Seed) ^ 0x53454e545259)}
	e.rootSnap = snapshot.Adopt(check.NewWorld(e.ccfg, cfg.Seed))
	return e
}

// Run explores the tree for cfg and returns the result.
func Run(cfg Config) *Result {
	start := time.Now()
	e := newExplorer(cfg, false)
	e.sweep()
	r := e.assemble()
	r.Elapsed = time.Since(start)
	e.mirror(r)
	return r
}

// sweep replays the corpus, then drains the tree through the worker pool.
func (e *explorer) sweep() {
	e.replayCorpus()
	workers := e.cfg.Workers
	e.deques = make([][]task, workers)
	e.pending = 1
	e.deques[0] = []task{{e.root, e.cfg.Budget}}
	wks := make([]*worker, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wks[i] = &worker{id: i}
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for {
				t, ok := e.next(wk)
				if !ok {
					return
				}
				e.execute(wk, t)
				e.done()
			}
		}(wks[i])
	}
	wg.Wait()
	// Fold per-worker accumulators.
	for _, wk := range wks {
		if wk.maxDepth > e.maxDepthFold {
			e.maxDepthFold = wk.maxDepth
		}
		e.covFold ^= wk.cov
	}
}

// execute drives one subtree: chains run inline on the live world, branch
// points park it and fan the siblings out as stealable tasks.
func (e *explorer) execute(wk *worker, t task) {
	n, quota := t.n, t.quota
	w, v := e.materialise(n)
	for {
		if n != e.root {
			e.visit(wk, n)
		}
		if v != nil {
			e.recordViolation(n, v)
			e.endSchedule(n, w, true)
			return
		}
		if w.Dead() || n.depth >= e.depth || quota <= 1 {
			e.endSchedule(n, w, false)
			return
		}
		ops := e.childOps(n, w, quota)
		if len(ops) == 0 {
			e.endSchedule(n, w, false)
			return
		}
		var quotas []int
		ops, quotas = splitQuota(quota-1, ops)
		if len(ops) == 1 {
			c := e.newChild(n, ops[0])
			v = w.Apply(c.op)
			n, quota = c, quotas[0]
			continue
		}
		e.park(n, w, len(ops))
		for i := len(ops) - 1; i >= 1; i-- {
			e.push(wk, task{e.newChild(n, ops[i]), quotas[i]})
		}
		c := e.newChild(n, ops[0])
		w, v = e.materialise(c)
		n, quota = c, quotas[0]
	}
}

func (e *explorer) newChild(n *node, op check.Op) *node {
	return &node{
		parent: n,
		op:     op,
		depth:  n.depth + 1,
		hash:   mix64(n.hash ^ (uint64(op.Code+1)<<32 | uint64(op.Arg))),
	}
}

func (e *explorer) visit(wk *worker, n *node) {
	e.schedules.Add(1)
	wk.cov ^= mix64(n.hash)
	if n.depth > wk.maxDepth {
		wk.maxDepth = n.depth
	}
	if e.collectPaths {
		// Baseline enumeration: every node is a schedule the seed-replay
		// path must pay for in full.
		e.addPath(e.pathOps(n))
	}
}

// branchSalt decorrelates the branch-point draw from the child draw and
// the coverage fold.
const branchSalt = 0x7f4a7c159e3779b9

// branchy reports whether n fans out. Most nodes chain — a single child,
// driven inline on the live world with no fork — and roughly one in eight
// becomes a branch point, so schedules grow deep (long shared prefixes,
// which is where prefix sharing pays) while still forking enough
// interleavings to explore adversarial orderings. The root's first levels
// always branch: the shortest violating pairs live there, and a sweep
// must never depend on one chain's luck to reach them. Like the child
// draw, the decision is a pure function of the path hash.
func (e *explorer) branchy(n *node) bool {
	return n.depth <= 1 || mix64(n.hash^branchSalt)&7 == 0
}

// childOps draws up to Branch distinct-code child ops for n — a single
// one unless n is a branch point. The draw is a pure function of the
// node's path hash, so the tree shape is identical at any worker count;
// at branch points the POR rule then drops edges that provably commute
// with n's own incoming edge. Chains are exempt from pruning: a pruned
// edge is redundant only because the sibling order is explored elsewhere,
// and a chain has no siblings.
func (e *explorer) childOps(n *node, w *check.World, quota int) []check.Op {
	k := quota - 1
	if k > e.branch {
		k = e.branch
	}
	if k > 1 && !e.branchy(n) {
		k = 1
	}
	rng := sim.NewRNG(int64(n.hash ^ childSalt))
	ops := make([]check.Op, 0, k)
	var seen uint32
	for tries := 0; len(ops) < k && tries < 6*e.branch; tries++ {
		s := check.GenerateFor(e.cfg.Check, rng, 1)
		if len(s) == 0 {
			continue
		}
		op := s[0]
		if seen&(1<<uint(op.Code)) != 0 {
			continue
		}
		seen |= 1 << uint(op.Code)
		if k > 1 && n != e.root && prune(w, n.op, op) {
			e.prunes.Add(1)
			continue
		}
		ops = append(ops, op)
	}
	return ops
}

// splitQuota divides a subtree budget of avail nodes among the drawn
// children: every child costs one node, terminal children never get
// descendants, and of the remainder the first live child (the spine)
// takes ~60% so the tree develops depth as well as breadth. Surplus
// budget at an all-terminal branch is deliberately forfeited — the
// undershoot is deterministic.
func splitQuota(avail int, ops []check.Op) ([]check.Op, []int) {
	if avail < len(ops) {
		ops = ops[:avail]
	}
	q := make([]int, len(ops))
	for i := range q {
		q[i] = 1
	}
	rem := avail - len(ops)
	var live []int
	for i, op := range ops {
		if !op.Code.Terminal() {
			live = append(live, i)
		}
	}
	if len(live) > 0 && rem > 0 {
		spine := rem * 3 / 5
		q[live[0]] += spine
		rem -= spine
		per, extra := rem/len(live), rem%len(live)
		for j, i := range live {
			q[i] += per
			if j < extra {
				q[i]++
			}
		}
	}
	return ops, q
}

// materialise produces a live world positioned after n.op, applying n.op
// itself and returning its violation, if any. The world comes from the
// nearest live ancestor snapshot: the direct parent — whose reference this
// child owns and consumes — or, past evicted snapshots, an ancestor
// reached by replaying the intermediate (previously clean) ops.
func (e *explorer) materialise(n *node) (*check.World, *check.Violation) {
	if n == e.root {
		return e.rootSnap.Fork(), nil
	}
	ops := []check.Op{n.op}
	var src *check.World
	a := n.parent
	if a == e.root {
		src = e.rootSnap.Fork()
		e.snapHits.Add(1)
	} else {
		a.mu.Lock()
		a.refs--
		last := a.refs == 0
		if a.snap != nil {
			if last {
				if hw, ok := a.snap.HandOff(); ok {
					src = hw
					e.handOffs.Add(1)
				}
				a.snap = nil
			} else {
				src = a.snap.Fork()
			}
		}
		a.mu.Unlock()
		if src != nil {
			e.snapHits.Add(1)
			if last {
				e.dropFromLRU(a)
			} else {
				e.touchLRU(a)
			}
		}
	}
	if src == nil {
		// The parent was evicted. Walk up — we own no references above the
		// parent, so ancestors are only forked, never handed off.
		for {
			ops = append(ops, a.op)
			a = a.parent
			if a == e.root {
				src = e.rootSnap.Fork()
				break
			}
			a.mu.Lock()
			if a.snap != nil {
				src = a.snap.Fork()
			}
			a.mu.Unlock()
			if src != nil {
				e.touchLRU(a)
				break
			}
		}
		e.replays.Add(1)
	}
	// Replay the gap. Every op but n.op was clean when first explored, and
	// replay is deterministic, so a violation or death here is a bug.
	for i := len(ops) - 1; i >= 1; i-- {
		if v := src.Apply(ops[i]); v != nil || src.Dead() {
			panic(fmt.Sprintf("explore: re-derivation diverged at %v", ops[i]))
		}
		e.replayedOps.Add(1)
	}
	return src, src.Apply(ops[0])
}

// park checkpoints w at branch node n for its children to consume, then
// evicts the coldest snapshots beyond the resident budget. Lock order:
// node.mu and lruMu never nest.
func (e *explorer) park(n *node, w *check.World, children int) {
	sn := snapshot.Adopt(w)
	n.mu.Lock()
	n.snap, n.refs = sn, children
	n.mu.Unlock()
	var victims []*node
	e.lruMu.Lock()
	n.elem = e.lru.PushFront(n)
	for e.lru.Len() > e.snapBudget {
		back := e.lru.Back()
		e.lru.Remove(back)
		vn := back.Value.(*node)
		vn.elem = nil
		victims = append(victims, vn)
	}
	if l := e.lru.Len(); l > e.peak {
		e.peak = l
	}
	e.lruMu.Unlock()
	for _, vn := range victims {
		// Drop the evicted snapshot; forks taken from it are independent.
		// Children that still hold references replay from an ancestor.
		vn.mu.Lock()
		if vn.snap != nil {
			vn.snap = nil
			e.evictions.Add(1)
		}
		vn.mu.Unlock()
	}
}

func (e *explorer) touchLRU(n *node) {
	e.lruMu.Lock()
	if n.elem != nil {
		e.lru.MoveToFront(n.elem)
	}
	e.lruMu.Unlock()
}

func (e *explorer) dropFromLRU(n *node) {
	e.lruMu.Lock()
	if n.elem != nil {
		e.lru.Remove(n.elem)
		n.elem = nil
	}
	e.lruMu.Unlock()
}

// endSchedule closes out a leaf: bank violating and near-miss prefixes.
func (e *explorer) endSchedule(n *node, w *check.World, violated bool) {
	e.leaves.Add(1)
	if violated {
		e.bankLine(e.pathOps(n))
		return
	}
	if w.Dead() && w.NearMiss() {
		e.nearMisses.Add(1)
		e.bankLine(e.pathOps(n))
	}
}

func (e *explorer) pathOps(n *node) check.Schedule {
	depth := n.depth
	ops := make(check.Schedule, depth)
	for m := n; m != e.root; m = m.parent {
		depth--
		ops[depth] = m.op
	}
	return ops
}

func (e *explorer) recordViolation(n *node, v *check.Violation) {
	sched := e.pathOps(n)
	e.resMu.Lock()
	e.violations = append(e.violations, violationRec{sched, v})
	e.resMu.Unlock()
}

func (e *explorer) bankLine(sched check.Schedule) {
	if len(sched) == 0 {
		return
	}
	line := (&check.Repro{Config: e.cfg.Check, Seed: e.cfg.Seed, Ops: sched}).String()
	e.resMu.Lock()
	e.bank[line] = struct{}{}
	e.resMu.Unlock()
}

func (e *explorer) addPath(sched check.Schedule) {
	e.resMu.Lock()
	e.paths = append(e.paths, sched)
	e.resMu.Unlock()
}

// replayCorpus drives each seeded corpus prefix from the root snapshot,
// checking (and counting) every step exactly like a tree node. Serial on
// purpose: the corpus is small and running it before the pool keeps the
// -j equivalence argument trivial.
func (e *explorer) replayCorpus() {
	for _, pfx := range e.cfg.Corpus {
		if len(pfx) == 0 {
			continue
		}
		w := e.rootSnap.Fork()
		applied := 0
		var v *check.Violation
		for _, op := range pfx {
			if w.Dead() {
				break
			}
			v = w.Apply(op)
			applied++
			e.schedules.Add(1)
			if v != nil {
				break
			}
		}
		e.leaves.Add(1)
		run := append(check.Schedule(nil), pfx[:applied]...)
		if e.collectPaths {
			// Every applied step was checked as its own schedule; the
			// baseline owes a replay for each of those prefixes.
			for k := 1; k <= applied; k++ {
				e.addPath(run[:k:k])
			}
		}
		if v != nil {
			e.resMu.Lock()
			e.violations = append(e.violations, violationRec{run, v})
			e.resMu.Unlock()
			e.bankLine(run)
		} else if w.Dead() && w.NearMiss() {
			e.nearMisses.Add(1)
			e.bankLine(run)
		}
	}
}

// Frontier: per-worker LIFO deques. A worker pops its own newest task
// (depth-first, cache-warm); an idle worker steals the oldest task from
// the longest other deque (the coarsest subtree). pending counts pushed-
// but-unfinished tasks; the pool drains when it hits zero.

func (e *explorer) push(wk *worker, t task) {
	e.fmu.Lock()
	e.deques[wk.id] = append(e.deques[wk.id], t)
	e.pending++
	e.fmu.Unlock()
	e.fcond.Signal()
}

func (e *explorer) next(wk *worker) (task, bool) {
	e.fmu.Lock()
	defer e.fmu.Unlock()
	for {
		if d := e.deques[wk.id]; len(d) > 0 {
			t := d[len(d)-1]
			e.deques[wk.id] = d[:len(d)-1]
			return t, true
		}
		best, bestLen := -1, 0
		for i, d := range e.deques {
			if i != wk.id && len(d) > bestLen {
				best, bestLen = i, len(d)
			}
		}
		if best >= 0 {
			t := e.deques[best][0]
			e.deques[best] = e.deques[best][1:]
			return t, true
		}
		if e.pending == 0 {
			return task{}, false
		}
		e.fcond.Wait()
	}
}

func (e *explorer) done() {
	e.fmu.Lock()
	e.pending--
	drained := e.pending == 0
	e.fmu.Unlock()
	if drained {
		e.fcond.Broadcast()
	}
}

// assemble builds the Result after the pool drains: canonical-min
// violation selection, shrinking through the root checkpoint, and the
// sorted corpus bank.
func (e *explorer) assemble() *Result {
	r := &Result{
		Schedules:    e.schedules.Load(),
		Leaves:       e.leaves.Load(),
		PORPrunes:    e.prunes.Load(),
		MaxDepth:     e.maxDepthFold,
		NearMisses:   e.nearMisses.Load(),
		CoverageHash: e.covFold,
		SnapshotHits: e.snapHits.Load(),
		HandOffs:     e.handOffs.Load(),
		Replays:      e.replays.Load(),
		ReplayedOps:  e.replayedOps.Load(),
		Evictions:    e.evictions.Load(),
		PeakResident: e.peak,
	}
	if len(e.violations) > 0 {
		r.Violations = len(e.violations)
		sort.Slice(e.violations, func(i, j int) bool {
			return e.violations[i].sched.String() < e.violations[j].sched.String()
		})
		best := e.violations[0]
		r.Sched = best.sched
		minimal, mv := check.ShrinkFrom(e.rootSnap, e.ccfg, e.cfg.Seed, best.sched)
		if mv == nil { // cannot happen: best.sched violated when explored
			minimal, mv = best.sched, best.v
		}
		r.Repro = &check.Repro{
			Config: e.cfg.Check, Seed: e.cfg.Seed,
			Ops: minimal, Violation: mv, OriginalLen: len(best.sched),
		}
	}
	r.Corpus = make([]string, 0, len(e.bank))
	for line := range e.bank {
		r.Corpus = append(r.Corpus, line)
	}
	sort.Strings(r.Corpus)
	if len(r.Corpus) > MaxCorpus {
		r.Corpus = r.Corpus[:MaxCorpus]
	}
	r.OpsExecuted = e.opsExec.Value()
	return r
}

// mirror publishes the run's counters into the configured registry.
func (e *explorer) mirror(r *Result) {
	reg := e.cfg.Registry
	if reg == nil {
		return
	}
	reg.Counter("explore.schedules").Add(r.Schedules)
	reg.Counter("explore.leaves").Add(r.Leaves)
	reg.Counter("explore.por_prunes").Add(r.PORPrunes)
	reg.Counter("explore.near_misses").Add(r.NearMisses)
	reg.Counter("explore.snapshot_hits").Add(r.SnapshotHits)
	reg.Counter("explore.handoffs").Add(r.HandOffs)
	reg.Counter("explore.replays").Add(r.Replays)
	reg.Counter("explore.replayed_ops").Add(r.ReplayedOps)
	reg.Counter("explore.evictions").Add(r.Evictions)
	reg.Counter("explore.ops_executed").Add(r.OpsExecuted)
	reg.Counter("explore.violations").Add(uint64(r.Violations))
}

// Baseline measures the seed-replay cost of exactly the coverage a tree
// run achieves. It runs the tree once (untimed) to enumerate the explored
// schedules — every node, not just the leaves — then checks each one the
// way the current campaign path would: fork the post-boot snapshot and
// replay the schedule's ops in full, scanning at every step. Two
// schedules sharing a 50-op prefix pay for those 50 ops twice here and
// once in the tree; that duplicated work is precisely what the explorer
// removes. The deterministic fields are recomputed from the replays (and
// must match the tree's; explore_test.go asserts it), while Elapsed and
// OpsExecuted cover only the replay phase, so Schedules/Elapsed is the
// honest like-for-like baseline throughput.
func Baseline(cfg Config) *Result {
	e := newExplorer(cfg, true)
	e.sweep()
	r := e.assemble()

	paths := e.paths
	sort.Slice(paths, func(i, j int) bool { return paths[i].String() < paths[j].String() })

	bcfg := cfg.Check
	ops := &obs.Counter{}
	bcfg.OpsCounter = ops
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	start := time.Now()
	boot := snapshot.Capture(check.NewWorld(bcfg, cfg.Seed))
	type rec struct {
		v    *check.Violation
		dead bool
		miss bool
		len  int
	}
	recs := make([]rec, len(paths))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(paths) {
					return
				}
				w := boot.Fork()
				v := check.ReplayFrom(w, paths[i])
				recs[i] = rec{v: v, dead: w.Dead(), miss: v == nil && w.NearMiss(), len: len(paths[i])}
			}
		}()
	}
	wg.Wait()
	r.Elapsed = time.Since(start)
	r.OpsExecuted = ops.Value()

	// Recompute the verdict fields from the replays.
	var viols []violationRec
	var nearMisses uint64
	bank := map[string]struct{}{}
	for i, rc := range recs {
		if rc.v != nil {
			sched := paths[i]
			if rc.v.Step > 0 && rc.v.Step <= len(sched) {
				sched = sched[:rc.v.Step]
			}
			viols = append(viols, violationRec{sched, rc.v})
			bank[(&check.Repro{Config: cfg.Check, Seed: cfg.Seed, Ops: sched}).String()] = struct{}{}
			continue
		}
		if rc.miss {
			nearMisses++
			bank[(&check.Repro{Config: cfg.Check, Seed: cfg.Seed, Ops: paths[i]}).String()] = struct{}{}
		}
	}
	r.NearMisses = nearMisses
	r.Violations = len(viols)
	r.Sched, r.Repro = nil, nil
	if len(viols) > 0 {
		sort.Slice(viols, func(i, j int) bool {
			return viols[i].sched.String() < viols[j].sched.String()
		})
		best := viols[0]
		minimal, mv := check.Shrink(cfg.Check, cfg.Seed, best.sched)
		if mv == nil {
			minimal, mv = best.sched, best.v
		}
		r.Repro = &check.Repro{
			Config: cfg.Check, Seed: cfg.Seed,
			Ops: minimal, Violation: mv, OriginalLen: len(best.sched),
		}
		r.Sched = best.sched
	}
	r.Corpus = make([]string, 0, len(bank))
	for line := range bank {
		r.Corpus = append(r.Corpus, line)
	}
	sort.Strings(r.Corpus)
	if len(r.Corpus) > MaxCorpus {
		r.Corpus = r.Corpus[:MaxCorpus]
	}
	return r
}
