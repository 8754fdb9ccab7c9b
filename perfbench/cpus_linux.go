//go:build linux

package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity CPU set for up to 1024 CPUs.
type cpuMask [16]uint64

// cpuRotor pins the whole process to one of the CPUs it may run on,
// in turn. On a shared host the CPUs of a small machine can differ in
// speed by a third for minutes at a time, and a single-threaded solve
// loop otherwise stays on whichever CPU it started on, so a run's times
// depended on that draw. Rotating the measured ops over every allowed
// CPU, and reporting the mean of per-CPU medians, makes each run sample
// all of them.
type cpuRotor struct {
	all  cpuMask
	cpus []int
}

// rotor is read once, before anything is pinned.
var rotor = newCPURotor()

func newCPURotor() *cpuRotor {
	r := &cpuRotor{}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		unsafe.Sizeof(r.all), uintptr(unsafe.Pointer(&r.all))); e != 0 {
		return r
	}
	for c := 0; c < len(r.all)*64; c++ {
		if r.all[c/64]&(1<<(c%64)) != 0 {
			r.cpus = append(r.cpus, c)
		}
	}
	return r
}

// pin runs the process on the CPU of slot k, counted modulo the
// number of allowed CPUs, and returns that slot.
func (r *cpuRotor) pin(k int) int {
	if len(r.cpus) < 2 {
		return 0
	}
	slot := k % len(r.cpus)
	var m cpuMask
	c := r.cpus[slot]
	m[c/64] = 1 << (c % 64)
	setProcessAffinity(&m)
	return slot
}

// release lets the process run on every allowed CPU again.
func (r *cpuRotor) release() {
	if len(r.cpus) >= 2 {
		setProcessAffinity(&r.all)
	}
}

// setProcessAffinity sets the CPU set of every thread of the process.
// A thread started while the set is being applied inherits its
// creator's set, so the pass repeats until it finds no new thread.
func setProcessAffinity(m *cpuMask) {
	done := map[int]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return
		}
		fresh := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || done[tid] {
				continue
			}
			done[tid], fresh = true, true
			// A thread that exited meanwhile reports ESRCH; nothing to do.
			syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
				unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
		}
		if !fresh {
			return
		}
	}
}
