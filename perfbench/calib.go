package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's host is shared. On the 2-CPU host it was defined on, a
// quarter of the CPU time of a busy run was stolen by other tenants, in
// slices of 10-50 ms, and the speed of one binary drifted by 10-20% from
// minute to minute. Neither a longer run nor a median removes that from a
// wall-clock figure, so the timed end-to-end metrics are taken in two ways:
//
//   - Work is timed in process CPU time, which the kernel does not charge
//     for slices stolen from the VM, where the benchmark can own the
//     process: every job of the closed loops, and the serve flood.
//   - Every timed figure is expressed in cals: multiples of the time of a
//     fixed calibration kernel measured in the same run, beside the work it
//     scales. A slower program moves the metric; a slower host moves both
//     sides and cancels. The kernel touches no code of the repository, so no
//     change to the program can move it. One cal is about 1 ms there.
//
// Serve latency stays wall clock, since queueing is what it measures, and is
// scaled by the calibration's mean wall time over the same stretch: a mean,
// not a median, so that the slices stolen from the calibration runs count
// as they count against the jobs. Every report also prints the raw
// wall-clock figures.

// calibration is the kernel's working set: a cache-resident table walked
// with data-dependent branches, the shape of an interpreter's dispatch. It
// deliberately touches no fresh memory: how quickly a large buffer clears
// depends on page backing and on other tenants' cache traffic, and on that
// host it was bimodal from one process to the next (0.36 or 0.52 ms).
type calibration struct {
	tab  []uint32
	sink uint32
}

func newCalibration() *calibration {
	c := &calibration{tab: make([]uint32, 1<<14)}
	for i := range c.tab {
		c.tab[i] = uint32(i)*2654435761 ^ uint32(i>>3)
	}
	return c
}

// run executes the kernel once and returns its wall and CPU time in ns. The
// caller must be locked to its OS thread (runtime.LockOSThread): the CPU
// time is the thread's, so neither the garbage collector nor a farm VM on
// another thread is charged to it.
func (c *calibration) run() (wallNs, cpuNs float64) {
	c0, t0 := threadCPUTime(), time.Now()
	x, acc := uint32(12345), uint32(0)
	for i := 0; i < 400_000; i++ {
		v := c.tab[x&(1<<14-1)]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v >> 3
		}
		x = x*1664525 + 1013904223
	}
	c.sink = acc
	return float64(time.Since(t0).Nanoseconds()), threadCPUTime() - c0
}

// calSample is one calibration run and when it started.
type calSample struct {
	at        time.Time
	wall, cpu float64 // ns
}

// sampleCal runs the kernel every period on a goroutine locked to its own
// thread until stop is closed, then sends every sample. Serve's jobs run on
// the farm's goroutines, where no calibration run can sit beside each job;
// sampling through the window instead sees the same stolen slices and the
// same contention between the two CPUs that the jobs see.
func sampleCal(period time.Duration, stop <-chan struct{}) <-chan []calSample {
	out := make(chan []calSample, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		c := newCalibration()
		tick := time.NewTicker(period)
		defer tick.Stop()
		var s []calSample
		for {
			select {
			case <-stop:
				out <- s
				return
			case <-tick.C:
				at := time.Now()
				w, cpu := c.run()
				s = append(s, calSample{at, w, cpu})
			}
		}
	}()
	return out
}

// calWindow returns the wall and CPU times, in ms, of the samples taken in
// [from, to].
func calWindow(s []calSample, from, to time.Time) (wall, cpu []float64) {
	for _, c := range s {
		if !c.at.Before(from) && !c.at.After(to) {
			wall = append(wall, c.wall/1e6)
			cpu = append(cpu, c.cpu/1e6)
		}
	}
	return wall, cpu
}

// cpuTime is the process's CPU time in ns, over all threads (so it includes
// the garbage collector's background work).
func cpuTime() float64 { return clock(clockProcessCPUTime) }

// threadCPUTime is the calling thread's CPU time in ns.
func threadCPUTime() float64 { return clock(clockThreadCPUTime) }

// Linux clock IDs. getrusage would do for the process, but for a thread it
// reports tick-sampled times that read zero over a millisecond.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func clock(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock ID and pointer cannot fail
	}
	return float64(ts.Nano())
}
