package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark runs on a virtual machine whose CPUs the hypervisor also
// lends to other guests. The time it takes away (the steal column of
// /proc/stat) stalls whatever was running, and on a shared host it comes in
// bursts that can double a run's wall time. So every workload times its work
// in short units (a set-up, an explorer tree, a suite experiment, a window
// of 1000 requests, a capacity probe), measures the steal during each, and
// re-runs or leaves out the units a burst disturbed. Every figure reported
// is still a wall-clock time, taken from undisturbed units.

const (
	// maxSteal is the share of the CPUs' time stolen during a unit above
	// which the unit counts as disturbed.
	maxSteal = 0.02
	// stealTick is the unit /proc/stat counts in (USER_HZ is 100 on Linux).
	stealTick = 10 * time.Millisecond
)

var ncpu = float64(runtime.NumCPU())

// stolen is the CPU time the hypervisor has stolen from this machine since
// boot, summed over its CPUs; 0 where /proc/stat has no steal column.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * stealTick
}

// stealMark is a point in time with the steal counter read there.
type stealMark struct {
	at    time.Time
	steal time.Duration
}

func markSteal() stealMark { return stealMark{time.Now(), stolen()} }

// share is the share of the CPUs' time since m that was stolen.
func (m stealMark) share() float64 { return shareBetween(m, markSteal()) }

func shareBetween(a, b stealMark) float64 {
	wall := b.at.Sub(a.at)
	if wall <= 0 {
		return 0
	}
	return float64(b.steal-a.steal) / (float64(wall) * ncpu)
}

// waitQuiet waits, up to limit, for a quarter second in which nothing was
// stolen.
func waitQuiet(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		m := markSteal()
		time.Sleep(250 * time.Millisecond)
		if stolen() == m.steal {
			return
		}
	}
}

// quietly runs fn and, while the run was disturbed, tries remain and the
// run's retry deadline has not passed, waits for a quiet spell and runs fn
// again. It returns the steal share of fn's last run.
func (r *run) quietly(what string, tries int, fn func()) float64 {
	for i := 1; ; i++ {
		m := markSteal()
		fn()
		share := m.share()
		if share <= maxSteal {
			return share
		}
		if i >= tries || time.Now().After(r.retryUntil) {
			fmt.Printf("steal: %s disturbed (%.1f%% of CPU time stolen), kept\n", what, 100*share)
			r.disturbed++
			return share
		}
		fmt.Printf("steal: %s disturbed (%.1f%% of CPU time stolen), run again\n", what, 100*share)
		r.reruns++
		waitQuiet(2 * time.Second)
	}
}

// quietest returns the indexes of the undisturbed units given their steal
// shares, in order; when those are fewer than half, the quietest half.
func quietest(shares []float64) []int {
	var keep []int
	for i, s := range shares {
		if s <= maxSteal {
			keep = append(keep, i)
		}
	}
	if 2*len(keep) >= len(shares) {
		return keep
	}
	idx := make([]int, len(shares))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return shares[idx[a]] < shares[idx[b]] })
	keep = idx[:(len(idx)+1)/2]
	sort.Ints(keep)
	return keep
}

// stealSampler reads the steal counter every 20 ms while a serve phase runs,
// so that each window of requests can be given its steal share afterwards.
type stealSampler struct {
	marks []stealMark
	stop  chan struct{}
	done  sync.WaitGroup
}

func startStealSampler() *stealSampler {
	s := &stealSampler{marks: []stealMark{markSteal()}, stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.marks = append(s.marks, markSteal())
				return
			case <-t.C:
				s.marks = append(s.marks, markSteal())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its marks.
func (s *stealSampler) finish() []stealMark {
	close(s.stop)
	s.done.Wait()
	return s.marks
}

// shareIn is the steal share over the sampled span that covers [t0, t1].
func shareIn(marks []stealMark, t0, t1 time.Time) float64 {
	if len(marks) < 2 {
		return 0
	}
	i := sort.Search(len(marks), func(i int) bool { return marks[i].at.After(t0) })
	j := sort.Search(len(marks), func(i int) bool { return !marks[i].at.Before(t1) })
	i, j = max(0, i-1), min(len(marks)-1, j)
	if j <= i {
		return 0
	}
	return shareBetween(marks[i], marks[j])
}
