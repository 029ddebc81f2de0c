package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// On a shared virtual machine other guests' work on the same cores and
// memory slows this one by 30% or more for minutes at a time, with no steal
// to show for it, so wall-clock figures from runs minutes apart do not
// compare. Every untraced run therefore also times a fixed reference
// computation that shares no code with the program under test, in a child
// process of its own, while the program is idle between the units it
// measures. The run's slowdown is how much longer the reference took than on
// a quiet host; end-to-end times are reported divided by it and rates
// multiplied by it, and the raw figures are printed beside them.
//
// The reference is a pointer chase through 64 MB, which misses the caches on
// nearly every step: the programs measured are bound by memory as much as by
// arithmetic, and an arithmetic loop tracked their slowdowns poorly.
// README.md gives the probes that chose it.

const (
	chaseWords = 16 << 20 // 64 MB of uint32 links, one random cycle
	chaseSteps = 20000
	refChaseMs = 3.5 // the chase's median time on a quiet host
)

// calibrate is the child's side: it builds the chase buffer, then for every
// line read on stdin times the chase and prints its time in ns.
func calibrate() {
	next := make([]uint32, chaseWords)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle leaves one cycle through every word.
	x := uint64(0x9E3779B97F4A7C15)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	in := bufio.NewScanner(os.Stdin)
	p := uint32(0)
	for in.Scan() {
		// The chase runs three times and keeps its fastest: a burst of
		// background work in the program under test (its garbage collector
		// finishing a cycle) can slow one try, and should not count as the
		// host's speed.
		chase := time.Duration(math.MaxInt64)
		for try := 0; try < 3; try++ {
			t0 := time.Now()
			for i := 0; i < chaseSteps; i++ {
				p = next[p]
			}
			chase = min(chase, time.Since(t0))
		}
		// p is printed so the chase cannot be elided.
		fmt.Printf("%d %d\n", chase.Nanoseconds(), p)
	}
}

// hostProbe is the parent's handle on the calibrating child. A nil
// *hostProbe samples nothing and reports a slowdown of 1.
type hostProbe struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Scanner
	chase []float64 // ms per sample
	once  sync.Once
}

func startHostProbe() (*hostProbe, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-calibrate")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start the host probe: %w", err)
	}
	h := &hostProbe{cmd: cmd, in: in, out: bufio.NewScanner(out)}
	addChild(h)
	return h, nil
}

// watchHost starts the host probe for an untraced run and waits for its
// first sample, so that the child's set-up is over before anything is timed.
func (r *run) watchHost() error {
	if r.tr != nil {
		return nil
	}
	h, err := startHostProbe()
	if err != nil {
		return err
	}
	h.sample()
	r.host = h
	return nil
}

// sample times the reference once. The program under test should be idle
// meanwhile: the reference measures the host, not the program.
func (h *hostProbe) sample() {
	if h == nil {
		return
	}
	if _, err := io.WriteString(h.in, "\n"); err != nil {
		fatalf("host probe: %v", err)
	}
	if !h.out.Scan() {
		fatalf("host probe: no reply: %v", h.out.Err())
	}
	f := strings.Fields(h.out.Text())
	if len(f) != 2 {
		fatalf("host probe: reply %q", h.out.Text())
	}
	chase, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		fatalf("host probe: reply %q", h.out.Text())
	}
	h.chase = append(h.chase, float64(chase)/1e6)
}

// samples is the number of samples taken so far.
func (h *hostProbe) samples() int {
	if h == nil {
		return 0
	}
	return len(h.chase)
}

// slowdown is the chase's median time over its quiet-host time: 1 on a
// quiet host, 1.3 on one that runs the chase 30% slower.
func (h *hostProbe) slowdown() float64 { return h.slowdownSince(0) }

// slowdownSince is the slowdown over the samples from the from'th on.
func (h *hostProbe) slowdownSince(from int) float64 {
	if h == nil || len(h.chase) <= from {
		return 1
	}
	return median(h.chase[from:]) / refChaseMs
}

func (h *hostProbe) report() {
	if h == nil {
		return
	}
	fmt.Printf("host: %d reference samples, chase median %.3f ms (quiet %.1f): slowdown %.4f\n",
		len(h.chase), median(h.chase), refChaseMs, h.slowdown())
}

// stop ends the child and waits for it. Idempotent.
func (h *hostProbe) stop() {
	h.once.Do(func() {
		h.in.Close()
		done := make(chan struct{})
		go func() {
			h.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			h.cmd.Process.Kill()
			<-done
		}
	})
}
