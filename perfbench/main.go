// Command perfbench is the repository's benchmark. One invocation runs one
// workload generated from a seed, measures it from outside the program under
// test, checks the program's outputs, and prints as its last line a JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 3.2, "unit": "ms"}, ...}}
//
// Run it through run.sh, which first builds sentryd and this command from
// source:
//
//	bash perfbench/run.sh --workload serve-churn --seed 1 --seconds 50 --trace 0
//
// With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics; with
// --trace 1 the run is traced, its spans are written next to the binaries,
// and the metrics are the per-layer ones. The run checks its metric names
// against BENCHMARK.json and takes their units from there. README.md
// describes the workloads and what each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"serve-churn":       serveWorkload,
	"serve-session":     serveWorkload,
	"explore-adversary": exploreWorkload,
	"suite":             suiteWorkload,
}

// A run sets its workload up at least setupMin times and for at least
// setupBudget, at most setupMax times; setup_s is the median of the
// undisturbed set-ups.
const (
	setupMin    = 3
	setupMax    = 100
	setupBudget = 2 * time.Second
)

// morePasses reports whether a workload that repeats a fixed pass of work
// (the explorer's tree list, the suite) should run another pass: always a
// first one, then another while it would still end within --seconds of
// start, judging by the last pass.
func (r *run) morePasses(start time.Time, done int, last time.Duration) bool {
	return done == 0 || time.Since(start)+last <= time.Duration(r.seconds*float64(time.Second))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation: its inputs, the metrics measured so far and the
// correctness problems found.
type run struct {
	workload string
	seed     int64
	seconds  float64
	bin      string     // where run.sh put sentryd; spans are written here too
	tr       *tracer    // nil unless --trace 1
	host     *hostProbe // started by the workloads that divide by the host's slowdown

	units     map[string]string // the metrics this run must report, with their units
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string

	retryUntil time.Time // units disturbed by steal are run again only until then
	reruns     int       // units run again because steal disturbed them
	disturbed  int       // disturbed units kept because no retry was left
}

func main() {
	var (
		workload = flag.String("workload", "", "serve-churn, serve-session, explore-adversary or suite")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 15, "how long the run measures, in seconds")
		traced   = flag.Int("trace", 0, "1 runs the workload traced and reports the per-layer metrics")
		bin      = flag.String("bin", ".bench_build", "directory holding the sentryd binary")
		pin      = flag.Bool("pin", false, "recompute the explorer and suite pins and print them as JSON")
		calib    = flag.Bool("calibrate", false, "run as the host probe's child (see hostspeed.go)")
	)
	flag.Parse()
	if *calib {
		calibrate()
		return
	}
	go stopOnSignal()
	if *pin {
		printPins()
		return
	}
	fn, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds < 1 || *traced < 0 || *traced > 1 {
		fatalf("--seconds must be at least 1 and --trace 0 or 1")
	}
	sch, err := loadSchema("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	r := &run{workload: *workload, seed: *seed, seconds: float64(*seconds), bin: *bin,
		units: map[string]string{}, metrics: map[string]metric{},
		retryUntil: time.Now().Add(time.Duration(1.25 * float64(*seconds) * float64(time.Second)))}
	list := sch.EndToEnd
	if *traced == 1 {
		r.tr = newTracer()
		list = sch.PerLayer
	}
	for _, m := range list {
		r.units[m.Name] = m.Unit
	}
	if err := fn(r); err != nil {
		fatalf("%s: %v", r.workload, err)
	}
	stopChildren()
	fmt.Printf("steal: %d units run again, %d disturbed units kept\n", r.reruns, r.disturbed)
	if r.tr != nil {
		path := filepath.Join(r.bin, fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			fatalf("%v", err)
		}
	}
	r.finish()
}

type schemaMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type schema struct {
	EndToEnd []schemaMetric `json:"end_to_end"`
	PerLayer []schemaMetric `json:"per_layer"`
}

func loadSchema(path string) (*schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	var s schema
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("schema %s: %w", path, err)
	}
	return &s, nil
}

// setup times the workload's set-up fn, with before run untimed ahead of
// each, and reports setup_s (untraced runs only).
func (r *run) setup(what string, before func(), fn func() error) error {
	var times, shares []float64
	start := time.Now()
	for len(times) < setupMin || (time.Since(start) < setupBudget && len(times) < setupMax) {
		before()
		m := markSteal()
		if err := fn(); err != nil {
			return err
		}
		times = append(times, time.Since(m.at).Seconds())
		shares = append(shares, m.share())
	}
	var kept []float64
	for _, i := range quietest(shares) {
		kept = append(kept, times[i])
	}
	fmt.Printf("setup: %s; %d set-ups, median of %d kept: %.6g s\n", what, len(times), len(kept), median(kept))
	if r.tr == nil {
		r.set("setup_s", median(kept))
	}
	return nil
}

// setTime records an end-to-end time as it would read on a quiet host: the
// raw time over the run's slowdown (see hostspeed.go).
func (r *run) setTime(name string, raw float64) {
	fmt.Printf("%-36s raw %.6g, slowdown %.4f\n", name, raw, r.host.slowdown())
	r.set(name, raw/r.host.slowdown())
}

// setRate records an end-to-end rate as it would read on a quiet host.
func (r *run) setRate(name string, raw float64) {
	fmt.Printf("%-36s raw %.6g, slowdown %.4f\n", name, raw, r.host.slowdown())
	r.set(name, raw*r.host.slowdown())
}

// set records one metric; its unit comes from BENCHMARK.json.
func (r *run) set(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		fatalf("metric %s is not in BENCHMARK.json for this run", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fatalf("metric %s is %v", name, v)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("%-36s %.6g %s\n", name, v, unit)
}

func (r *run) has(name string) bool {
	_, ok := r.metrics[name]
	return ok
}

// fail records a correctness problem: the run still reports its metrics,
// with correct=false, and exits non-zero.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Printf("FAIL: %s\n", msg)
}

func (r *run) finish() {
	var missing []string
	for name := range r.units {
		if !r.has(name) {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fatalf("metrics not measured: %v", missing)
	}
	if r.attempted < 1 {
		fatalf("no work attempted")
	}
	fmt.Printf("failed_frac %.6f ratio (%d of %d attempted)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("result: %v", err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func stopOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	stopChildren()
	os.Exit(1)
}

// fatalf reports an error that leaves the run without a result: it stops
// every child process and exits non-zero without printing a result line.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	stopChildren()
	os.Exit(1)
}
