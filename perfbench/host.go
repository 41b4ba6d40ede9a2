package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// hostFacts names the machine and build a measurement came from, so that
// entries recorded on different hosts or commits show as such.
func hostFacts() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision, set at build time by run.sh.
var commit = "unknown"

// cpuNow is the process's CPU time, user plus system, over all threads.
// The benchmark's host times are CPU time rather than wall time: on a
// virtual machine the hypervisor may run other guests on this guest's CPUs,
// and that stolen time lengthens wall time but is not charged to the
// process.
func cpuNow() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

// Linux clock ids for clock_gettime. Both clocks read the scheduler's
// nanosecond run-time accounting; getrusage(RUSAGE_THREAD) can be as coarse
// as a scheduler tick.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("perfbench: clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// calibrationRefS is calibrate's CPU time on the host the benchmark was
// defined on (2-vCPU Xeon virtual machine, go1.24.0). The end-to-end host
// times are scaled to it; see calibrate.
const calibrationRefS = 0.15

// calibrationExp is how strongly the workloads' CPU time follows the
// calibration's when the host's speed changes. Over 100 runs, made in three
// to five sets per workload at different times, the fitted exponent was
// 0.56 to 0.76 by workload. With the full ratio (exponent 1) the scaling
// over-corrects, and one workload's set medians still differed by up to
// 18%; at 0.7 by up to 8%.
const calibrationExp = 0.7

// speedScale converts CPU time measured while the median calibration took
// cal seconds to CPU time at the reference host speed.
func speedScale(cal float64) float64 { return math.Pow(calibrationRefS/cal, calibrationExp) }

var calibrationSink uint64

// calibrate runs a fixed job built from the standard library alone and
// returns its CPU time: a measure of how fast the host runs right now. On a
// shared virtual machine that speed drifts by 20% and more over minutes, as
// other guests load the physical cores. A run interleaves calibrations with
// its repetitions and scales its end-to-end host times by speedScale of the
// median calibration, so that runs made at different moments compare. The job mixes what the simulator's host time is made of:
// goroutine hand-offs over channels, map and slice updates at pseudo-random
// keys, and small allocations. It does not touch the repository's code, so
// a change to that code moves the scaled times by the same factor as the
// raw ones.
func calibrate() time.Duration {
	runtime.GC()
	c0 := cpuNow()
	ping, pong := make(chan uint64, 1), make(chan uint64, 1)
	done := make(chan struct{})
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(done)
	}()
	x := uint64(88172645463325252)
	for i := 0; i < 150_000; i++ {
		ping <- x
		x = <-pong
	}
	close(ping)
	<-done
	m := make(map[uint64]uint64, 1<<14)
	s := make([]uint64, 1<<16)
	for i := 0; i < 1_500_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x&(1<<15-1)] += x
		s[x&(1<<16-1)] ^= x
	}
	keep := make([][]uint64, 0, 1024)
	for i := 0; i < 80_000; i++ {
		keep = append(keep, make([]uint64, 8))
		if len(keep) == cap(keep) {
			keep = keep[:0]
		}
	}
	calibrationSink = x + uint64(len(m)) + s[7] + uint64(len(keep))
	return cpuNow() - c0
}
