package main

import (
	"math"
	"runtime/metrics"
	"sort"
)

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// memSample is a runtime/metrics reading of cumulative allocation and
// CPU accounting.
type memSample struct {
	bytes, objects  uint64
	gcCPU, totalCPU float64
}

var memNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readMem() memSample {
	s := make([]metrics.Sample, len(memNames))
	for i, n := range memNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return memSample{
		bytes:    s[0].Value.Uint64(),
		objects:  s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

// allocMeter accumulates allocation deltas around measured operations
// and the GC share of CPU over the whole measured phase.
type allocMeter struct {
	start         memSample
	bytes, allocs []float64
}

func newAllocMeter() *allocMeter { return &allocMeter{start: readMem()} }

// around runs f and records the bytes and objects it allocated.
func (m *allocMeter) around(f func() error) error {
	before := readMem()
	err := f()
	after := readMem()
	m.bytes = append(m.bytes, float64(after.bytes-before.bytes))
	m.allocs = append(m.allocs, float64(after.objects-before.objects))
	return err
}

// report sets the allocation layer metrics.
func (m *allocMeter) report(rep *report) {
	end := readMem()
	rep.setLayer("alloc_mb_per_solve", median(m.bytes)/(1<<20), len(m.bytes))
	rep.setLayer("allocs_per_solve", median(m.allocs), len(m.allocs))
	share := 0.0
	if d := end.totalCPU - m.start.totalCPU; d > 0 {
		share = (end.gcCPU - m.start.gcCPU) / d
	}
	rep.setLayer("gc_cpu_share", share, 1)
}

// slotMedian is the mean over CPU slots of the median of the samples
// taken in each slot; slots[i] is the slot of xs[i]. Ops rotate over the
// CPUs, so this weighs every CPU alike whatever the number of samples
// each got.
func slotMedian(xs []float64, slots []int) float64 {
	by := map[int][]float64{}
	for i, x := range xs {
		by[slots[i]] = append(by[slots[i]], x)
	}
	var meds []float64
	for _, v := range by {
		meds = append(meds, median(v))
	}
	return mean(meds)
}
