package main

import (
	"runtime"
	"syscall"
	"time"
)

// The benchmark's host is a shared virtual machine. Wall time there
// includes the time the hypervisor gives the vCPU to someone else, and
// both wall and CPU time drift by tens of percent over minutes as the
// neighbours' load changes. So a repetition's timings are its process
// CPU time, divided by the CPU time a fixed calibration kernel took just
// before the same repetition, and expressed in reference seconds: the
// seconds the repetition would take on a host where the kernel takes
// refCalibS. Only the simulator's code differs between two commits, so
// a change to it moves the scaled figures exactly as it moves CPU time.

// refCalibS is the calibration kernel's CPU seconds on the reference
// host, about what it takes on an unloaded 2-core Xeon VM.
const refCalibS = 0.08

// calibSteps is the kernel's work per repetition, run just before it.
const calibSteps = 400_000

// cpuNow returns the CPU time the process has used, user and system,
// over all its threads.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSince returns the CPU seconds used since start.
func cpuSince(start time.Duration) float64 { return (cpuNow() - start).Seconds() }

// scaled converts CPU seconds measured while the calibration kernel took
// calibS CPU seconds into reference seconds.
func scaled(cpuS, calibS float64) float64 { return cpuS * refCalibS / calibS }

// calibNode is one heap object of the calibration kernel.
type calibNode struct {
	next *calibNode
	val  [6]uint64
}

// calibrate runs steps of the calibration kernel and returns a checksum
// of its work. The kernel does what the simulator does most: allocates
// small objects, follows pointers through about 2 MB of heap and updates
// a map. Its work depends only on steps.
func calibrate(steps int) uint64 {
	const slots = 1 << 15
	nodes := make([]*calibNode, slots)
	for i := range nodes {
		nodes[i] = &calibNode{}
	}
	m := make(map[uint64]uint64, 4096)
	x := uint64(88172645463325252)
	var sum uint64
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (slots - 1)
		n := &calibNode{next: nodes[j]}
		n.val[0] = x
		nodes[j] = n
		if prev := n.next; prev != nil {
			n.val[1] = prev.val[0]
			prev.next = nil
		}
		m[x&4095] += n.val[1]
	}
	for k, v := range m {
		sum += k ^ v
	}
	return sum
}

// calibSink keeps the kernel's checksum live.
var calibSink uint64

// calibrateCPU runs steps of the kernel and returns its CPU seconds.
// Call it when no model is reachable: the collections it triggers mark
// the whole live heap, which a change to the simulator can move.
func calibrateCPU(steps int) float64 {
	runtime.GC()
	c0 := cpuNow()
	calibSink += calibrate(steps)
	return cpuSince(c0)
}
