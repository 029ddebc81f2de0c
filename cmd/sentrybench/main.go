// Command sentrybench regenerates the paper's tables and figures, and is
// the repo's one harness for its wall-clock scoreboard.
//
// Usage:
//
//	sentrybench -list                   # show available experiments
//	sentrybench -exp fig9               # run one experiment
//	sentrybench -exp all                # run everything
//	sentrybench -exp all -j 0           # ... on a GOMAXPROCS-wide worker pool
//	sentrybench -exp fig2 -seed 7       # different simulation seed
//	sentrybench -check -seeds 256       # invariant model-checker campaign
//	sentrybench -check -faults benign   # ... with benign fault injection
//	sentrybench -check -j 0             # ... campaign seeds on a worker pool
//	sentrybench -attacks -seeds 24      # cache-timing adversary sweep: per-profile leak verdicts
//	sentrybench -dfa -seeds 24          # fault-injection sweep: DFA key recovery vs placements and countermeasures
//	sentrybench -explore -explore-budget 100000 -j 0   # prefix-sharing schedule explorer
//	sentrybench -explore -explore-corpus EXPLORE_corpus.txt        # seed the sweep from a corpus
//	sentrybench -explore -explore-corpus-out EXPLORE_corpus.txt    # bank interesting prefixes
//	sentrybench -fleet-soak -devices 32 -ops 300 -faults benign  # fleet chaos soak (JSON report)
//	sentrybench -fleet-soak -url http://127.0.0.1:8473 -devices 8 -ops 100 -faults benign  # ... against a running sentryd
//	sentrybench -fleet-scale -devices 24 -ops 40   # capacity smoke: delta-park + reshard equivalence, parked-bytes measurement
//	sentrybench -replay "platform=tegra3 defences=no-lock-flush faults=none seed=4 ops=pressure:9360834,lock:12083332"
//	sentrybench -record BENCH_wallclock.json   # re-record every scoreboard kind
//	sentrybench -guard BENCH_wallclock.json    # fail if a fresh run broke a guard-table row
//
// -record and -guard make the fixed run behind each kind of the
// internal/wallclock guard table (see runners); the modes above only run
// and print.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"sentry/internal/bench"
	"sentry/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (table2..table4, fig2..fig12, anchors, ablation-*) or 'all'")
		seed     = flag.Int64("seed", 1, "simulation seed")
		list     = flag.Bool("list", false, "list available experiments")
		parallel = flag.Int("j", 1, "worker-pool width for -exp all (0 = GOMAXPROCS)")
		traceOut = flag.String("trace", "", "write a JSONL event trace of all experiment activity to this file")
		record   = flag.String("record", "", "make every scoreboard run, write its record to this JSON file, and hold the fresh runs to the guard table")
		guard    = flag.String("guard", "", "make every scoreboard run but the record-only ones and hold them to the guard table against this JSON file; exit non-zero if a row fails")

		doCheck    = flag.Bool("check", false, "run the invariant model-checker campaign + positive controls")
		doAttacks  = flag.Bool("attacks", false, "run the cache-timing adversary sweep: per-profile leak verdicts for Prime+Probe, Evict+Reload, and the occupancy probe")
		doDFA      = flag.Bool("dfa", false, "run the fault-injection adversary sweep: DFA key-recovery verdicts per victim placement and countermeasure")
		doExplore  = flag.Bool("explore", false, "run the prefix-sharing schedule explorer + positive controls")
		expBudget  = flag.Int("explore-budget", 100000, "schedules (tree nodes) per defended sweep for -explore")
		expCorpus  = flag.String("explore-corpus", "", "corpus file of interesting prefixes to seed -explore with")
		expCorpOut = flag.String("explore-corpus-out", "", "write prefixes banked by -explore (merged with the file's existing entries) here")
		seeds      = flag.Int("seeds", 256, "campaign size for -check")
		checkSteps = flag.Int("check-steps", 0, "max schedule length for -check (0 = default)")
		faultsProf = flag.String("faults", "none", "fault profile for -check / -fleet-soak: none, benign, or adversarial")
		platforms  = flag.String("platforms", "tegra3,nexus4", "comma-separated platforms for -check")
		replayLine = flag.String("replay", "", "replay a printed repro line and exit")

		fleetSoak  = flag.Bool("fleet-soak", false, "run the fleet service-layer chaos soak and emit a JSON report")
		soakURL    = flag.String("url", "", "drive -fleet-soak over HTTP against the sentryd at this base URL instead of an in-process fleet")
		fleetScale = flag.Bool("fleet-scale", false, "run the fleet capacity smoke: delta-park and live-reshard equivalence plus the parked-bytes-per-device measurement")
		devices    = flag.Int("devices", 32, "fleet size for -fleet-soak / -fleet-scale")
		soakOps    = flag.Int("ops", 300, "ops per device for -fleet-soak / -fleet-scale")
	)
	flag.Parse()

	if *record != "" {
		if !runScoreboard(*record, true) {
			os.Exit(1)
		}
		return
	}
	if *guard != "" {
		if !runScoreboard(*guard, false) {
			os.Exit(1)
		}
		return
	}
	if *fleetSoak {
		if !runFleetSoak(*soakURL, *devices, *soakOps, *seed, *faultsProf) {
			os.Exit(1)
		}
		return
	}
	if *fleetScale {
		if _, ok := runFleetScale(*devices, *soakOps, *seed); !ok {
			os.Exit(1)
		}
		return
	}

	if *replayLine != "" {
		if !runReplay(*replayLine) {
			os.Exit(1)
		}
		return
	}
	if *doAttacks {
		if !runSweep(attackSweep(), *platforms, *seeds, *checkSteps, *seed, *parallel) {
			fatalf("attacks failed")
		}
		return
	}
	if *doDFA {
		if !runSweep(dfaSweep(), *platforms, *seeds, *checkSteps, *seed, *parallel) {
			fatalf("dfa failed")
		}
		return
	}
	if *doCheck {
		if !runCheck(*platforms, *seeds, *checkSteps, *faultsProf, *seed, *parallel) {
			fatalf("check failed")
		}
		return
	}
	if *doExplore {
		res := runExplore(*platforms, *expBudget, *parallel, *checkSteps, *faultsProf, *seed,
			false, *expCorpus, *expCorpOut)
		if !res.ok {
			fatalf("explore failed")
		}
		fmt.Printf("perf: explore total %.0f sched/s over %d schedules\n", res.rate(), res.schedules)
		return
	}

	var (
		tracer    *obs.Tracer
		traceSink *obs.JSONLSink
		traceBuf  *bufio.Writer
		traceFile *os.File
	)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("%v", err)
		}
		traceFile = f
		traceBuf = bufio.NewWriter(f)
		traceSink = obs.NewJSONLSink(traceBuf)
		tracer = obs.NewTracer(obs.DefaultRingSize)
		tracer.AddSink(traceSink)
		bench.SetTracer(tracer)
		if *parallel != 1 {
			// A single trace stream interleaves arbitrarily across
			// concurrent experiments; keep it readable.
			fmt.Fprintln(os.Stderr, "sentrybench: -trace forces -j 1")
			*parallel = 1
		}
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-20s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}

	var results []bench.Result
	if *exp == "all" {
		results = bench.RunAll(*seed, *parallel)
	} else {
		e, ok := bench.ByID(*exp)
		if !ok {
			fatalf("unknown experiment %q (try -list)", *exp)
		}
		start := time.Now()
		r, err := e.Run(*seed)
		results = []bench.Result{{Exp: e, Report: r, Err: err, Wall: time.Since(start)}}
	}

	for _, res := range results {
		if res.Err != nil {
			fatalf("%s: %v", res.Exp.ID, res.Err)
		}
		fmt.Print(res.Report.String())
		fmt.Printf("(%s in %v)\n\n", res.Exp.ID, res.Wall.Round(time.Millisecond))
	}

	if tracer != nil {
		err := traceSink.Err()
		if e := traceBuf.Flush(); err == nil {
			err = e
		}
		if e := traceFile.Close(); err == nil {
			err = e
		}
		if err != nil {
			fatalf("trace: %v", err)
		}
		fmt.Printf("trace: %d events written to %s\n", tracer.Emitted(), *traceOut)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sentrybench: "+format+"\n", args...)
	os.Exit(1)
}
