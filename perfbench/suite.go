package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sentry"
	"sentry/internal/bench"
)

// The suite workload runs every bench.All experiment serially at one of
// the pinned experiment seeds, chosen by the workload seed, and checks the
// digest of all reports against that seed's pin and every trace-bus and
// trace-crypto Agreement cell for "match".

func suiteWorkload(r *run) error {
	pins := loadPins().Suite
	first := int(((r.seed % int64(len(pins))) + int64(len(pins))) % int64(len(pins)))
	pin := pins[first]
	if err := r.watchHost(); err != nil {
		return err
	}
	err := r.setup("list the experiments, boot each platform", runtime.GC, func() error {
		if len(bench.All()) == 0 {
			return fmt.Errorf("no experiments registered")
		}
		for _, p := range []sentry.Platform{sentry.Tegra3, sentry.Nexus4} {
			if _, err := sentry.Open(p, benchPIN, sentry.WithSeed(pin.Seed)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	if r.tr != nil {
		// bench memoizes measurements within a process, so only a process's
		// first pass times every experiment: the traced pass runs here, and
		// the untraced baseline for the overhead in a fresh process.
		t := suitePass(r, pin, r.tr)
		u, err := untracedRate(r)
		if err != nil {
			return err
		}
		r.set("trace.overhead_frac", t.total*u/float64(len(t.ids))-1)
		setSuiteLayers(r, t)
		return layerProbes(r, serveShapes["serve-session"])
	}
	// Each pass runs at the next pinned experiment seed: bench memoizes
	// measurements per seed within a process, so a seed runs only once.
	// Passes go on past the planned number, while seeds and retry time
	// remain, until every experiment has a run undisturbed by steal.
	var ps []suiteResult
	for start, last := time.Now(), time.Duration(0); len(ps) < len(pins); {
		if !r.morePasses(start, len(ps), last) && (everyQuiet(ps) || time.Now().After(r.retryUntil)) {
			break
		}
		t0 := time.Now()
		ps = append(ps, suitePass(r, pins[(first+len(ps))%len(pins)], nil))
		last = time.Since(t0)
	}
	// Each experiment's time is the median of its undisturbed runs, or its
	// least disturbed run if none was undisturbed. A pass's time counts that
	// time for each of its experiments steal disturbed.
	var total float64
	passMs := make([]float64, len(ps))
	for e := range ps[0].ids {
		var quiet []float64
		best := 0
		for i, p := range ps {
			if p.steal[e] <= maxSteal {
				quiet = append(quiet, p.wall[e])
			}
			if p.steal[e] < ps[best].steal[e] {
				best = i
			}
		}
		if len(quiet) == 0 {
			r.disturbed++
			quiet = []float64{ps[best].wall[e]}
		}
		t := median(quiet)
		total += t
		for i, p := range ps {
			if p.steal[e] <= maxSteal {
				passMs[i] += p.wall[e] * 1e3
			} else {
				passMs[i] += t * 1e3
			}
		}
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	fmt.Printf("suite_s %.3f s (serial wall clock of %d experiments, each its median over %d passes)\n",
		total, len(ps[0].ids), len(ps))
	fmt.Printf("p50_ms/p99_ms: wall time of one pass over every experiment, n=%d passes\n", len(passMs))
	r.host.report()
	r.setTime("p50_ms", median(passMs))
	r.setTime("p99_ms", quantile(passMs, 0.99))
	r.setRate("throughput_per_s", float64(len(ps[0].ids))/total)
	r.set("peak_rss_mb", rss)
	return nil
}

// everyQuiet reports whether every experiment has a run among ps that steal
// did not disturb.
func everyQuiet(ps []suiteResult) bool {
	for e := range ps[0].ids {
		quiet := false
		for _, p := range ps {
			quiet = quiet || p.steal[e] <= maxSteal
		}
		if !quiet {
			return false
		}
	}
	return true
}

type suiteResult struct {
	ids    []string
	wall   []float64 // s per experiment, in bench.All order
	steal  []float64 // steal share during each experiment
	total  float64   // s, serial wall clock of the pass
	digest string    // sha256 over every report's text, in bench.All order
}

// runSuite runs every experiment once at seed, recording a span per
// experiment on tr and sampling the host's speed on host before each, and
// returns the timings plus any problems found.
func runSuite(seed int64, tr *tracer, host *hostProbe) (suiteResult, []string) {
	var (
		res      suiteResult
		problems []string
	)
	h := sha256.New()
	start := time.Now()
	for _, e := range bench.All() {
		host.sample()
		sp := tr.open("bench.exp."+e.ID, 0, 0)
		m := markSteal()
		rep, err := e.Run(seed)
		res.wall = append(res.wall, time.Since(m.at).Seconds())
		res.steal = append(res.steal, m.share())
		tr.close(sp)
		res.ids = append(res.ids, e.ID)
		if err != nil {
			problems = append(problems, fmt.Sprintf("experiment %s: %v", e.ID, err))
			continue
		}
		h.Write([]byte(rep.String()))
		if e.ID == "trace-bus" || e.ID == "trace-crypto" {
			problems = append(problems, agreementProblems(rep)...)
		}
	}
	res.total = time.Since(start).Seconds()
	res.digest = hex.EncodeToString(h.Sum(nil))
	return res, problems
}

// agreementProblems lists every Agreement cell of a trace report that does
// not read "match".
func agreementProblems(rep *bench.Report) []string {
	col := -1
	for i, h := range rep.Header {
		if h == "Agreement" {
			col = i
		}
	}
	if col < 0 {
		return []string{rep.ID + ": no Agreement column"}
	}
	var out []string
	for _, row := range rep.Rows {
		if col >= len(row) || row[col] != "match" {
			out = append(out, fmt.Sprintf("%s: Agreement row %v", rep.ID, row))
		}
	}
	return out
}

func suitePass(r *run, pin suitePin, tr *tracer) suiteResult {
	res, problems := runSuite(pin.Seed, tr, r.host)
	for _, p := range problems {
		r.fail("%s", p)
		r.failed++
	}
	if res.digest != pin.Digest {
		r.fail("suite digest %s at seed %d; pinned %s", res.digest, pin.Seed, pin.Digest)
	}
	r.attempted += len(res.ids)
	fmt.Printf("suite pass: %d experiments in %.3f s, digest %s\n", len(res.ids), res.total, res.digest)
	return res
}

func setSuiteLayers(r *run, s suiteResult) {
	for i, id := range s.ids {
		r.set("bench.exp_s."+id, s.wall[i])
	}
}

// untracedRate runs one untraced pass of this workload and seed in a child
// process and returns its throughput_per_s.
func untracedRate(r *run) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-bin", r.bin, "-workload", r.workload, "-seed", strconv.FormatInt(r.seed, 10),
		"-seconds", "1", "-trace", "0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("untraced baseline: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return 0, fmt.Errorf("untraced baseline: %w", err)
	}
	fmt.Printf("untraced baseline in a child process: throughput_per_s %.6g\n", res.Metrics["throughput_per_s"].Value)
	return res.Metrics["throughput_per_s"].Value, nil
}
