package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// spinIters is sized so one calibration spin takes a few tens of
// milliseconds: long enough to average over scheduler ticks, short enough to
// run before and after every workload.
const spinIters = 10_000_000

var spinSink uint64

// spin runs a fixed integer loop and returns how long it took.
func spin() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
	return time.Since(start)
}

// hostCal is one calibration of the machine the benchmark runs on.
type hostCal struct {
	spinNs   float64 // ns per iteration of the spin loop on one thread
	capacity float64 // work two threads complete per unit time, over one thread's: 1.0 to 2.0
	loadavg1 float64
}

// calibrate times the spin loop on one thread and then on two at once. On
// a host whose second vCPU comes and goes, capacity reads anywhere between
// 1.0 and 2.0; multi-worker figures are only meaningful beside it.
func calibrate() hostCal {
	one := spin()
	for i := 0; i < 2; i++ {
		one = min(one, spin())
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spin()
		}()
	}
	wg.Wait()
	two := time.Since(start)
	return hostCal{
		spinNs:   float64(one) / spinIters,
		capacity: 2 * float64(one) / float64(two),
		loadavg1: loadavg1(),
	}
}

func loadavg1() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f, _ := strconv.ParseFloat(strings.Fields(string(raw))[0], 64)
	return f
}

// benchProcs is the thread budget of the load generator and of the server
// it spawns: the host rule keeps both at min(nproc, 2).
func benchProcs() int { return min(runtime.NumCPU(), 2) }

// provenance records what a reader needs to compare this report to another.
func provenance(r *report, root string, seconds float64, before hostCal) {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	r.infof("%s, commit %s, measured for %gs", runtime.Version(), commit, seconds)
	r.infof("host: nproc %d, GOMAXPROCS %d here and in any server spawned", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	r.infof("host before: %s", before)
}

func (c hostCal) String() string {
	return fmt.Sprintf("spin %.3f ns/iter, two-thread capacity %.2fx, loadavg1 %.2f", c.spinNs, c.capacity, c.loadavg1)
}

// peakRSSMB reads VmHWM, the peak resident set of a process, in MB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// clockTick is the kernel's USER_HZ, which Linux fixes at 100 for
// /proc/<pid>/stat on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	if pid == os.Getpid() {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, err
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after its ")".
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}
