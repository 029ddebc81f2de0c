package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// pins.json holds the expected outcome of every deterministic input the
// benchmark can run: each explorer tree's schedule count and coverage hash,
// and the suite's report digest for each experiment seed. Regenerate it with
//
//	bash perfbench/run.sh -pin > pins.json.new && mv pins.json.new perfbench/pins.json
//
// only when a change is meant to alter those outcomes.
//
//go:embed pins.json
var pinsJSON []byte

// suiteSeeds are the experiment seeds the suite workload draws from.
var suiteSeeds = []int64{1, 2, 3, 4}

type suitePin struct {
	Seed   int64  `json:"seed"`
	Digest string `json:"digest"`
}

type pinFile struct {
	ExploreBudget int        `json:"explore_budget"`
	Explore       []tree     `json:"explore"`
	Suite         []suitePin `json:"suite"`
}

func loadPins() pinFile {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		fatalf("pins.json: %v", err)
	}
	if len(p.Suite) == 0 {
		fatalf("pins.json pins no suite seeds")
	}
	return p
}

// printPins recomputes every pin and prints the file.
func printPins() {
	p := pinFile{ExploreBudget: exploreBudget}
	for _, plat := range explorePlatforms {
		for _, seed := range exploreSeeds {
			t := tree{Platform: plat, Seed: seed}
			res := t.run(runtime.NumCPU())
			if res.Violations > 0 {
				fatalf("explore %s: %d violations; a pinned tree must be clean", t, res.Violations)
			}
			t.Schedules, t.Coverage = res.Schedules, fmt.Sprintf("%016x", res.CoverageHash)
			fmt.Fprintf(os.Stderr, "pin: explore %s %d schedules in %v\n", t, res.Schedules, res.Elapsed)
			p.Explore = append(p.Explore, t)
		}
	}
	for _, seed := range suiteSeeds {
		res, problems := runSuite(seed, nil, nil)
		if len(problems) > 0 {
			fatalf("suite at seed %d: %v", seed, problems)
		}
		fmt.Fprintf(os.Stderr, "pin: suite seed %d in %.2fs\n", seed, res.total)
		p.Suite = append(p.Suite, suitePin{Seed: seed, Digest: res.digest})
	}
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		fatalf("pins: %v", err)
	}
	fmt.Println(string(out))
}
