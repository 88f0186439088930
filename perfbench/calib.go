package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on a few vCPUs of a shared machine, which runs
// slower as other tenants come and go: the same code has read 1.8x
// apart in CPU time per request at different hours, so the processor
// itself slows, not just the waiting. A calibrator measures that speed
// with a fixed reference computation written here, independent of the
// repository's code, so that a change to the program never changes it.
// The timed end-to-end figures are scaled by (calNominal ÷ the reference
// time measured next to them)^calExponent: they read as times on a host
// running at the speed calNominal was taken at, a program change still
// moves them in full, and the figures as measured are printed beside
// them.

// calNominal is the reference time of one slice on a 2-vCPU Xeon VM
// (2.0 GHz) in a quiet stretch; the scaled figures are quoted at that
// speed.
const calNominal = 1300 * time.Microsecond

const (
	// calTable is the reference computation's table: 128 KiB of uint32,
	// resident in L2, so the figure follows the processor's speed and
	// not where the operating system placed the pages.
	calTable = 1 << 15
	// calSteps is one slice's work, about a millisecond.
	calSteps = 1 << 17
	// calSlices is how many slices one measurement takes the median of.
	calSlices = 41
)

// calibrator runs the reference computation: a hash-table-like mix of
// data-dependent loads, stores and branches, as a solver's inner loops
// have.
type calibrator struct {
	table []uint32
	sink  uint32
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make([]uint32, calTable)}
	for i := range c.table {
		c.table[i] = uint32(mix(1, uint64(i)))
	}
	return c
}

// slice runs the reference computation once and returns its wall time.
func (c *calibrator) slice() time.Duration {
	start := time.Now()
	t, x, acc := c.table, uint32(0x9e3779b9), uint32(0)
	for s := 0; s < calSteps; s++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := t[(x^acc)&(calTable-1)]
		if v&1 == 0 {
			acc += v >> 3
		} else {
			acc ^= v
			t[x&(calTable-1)] = v + acc
		}
	}
	c.sink = acc
	return time.Since(start)
}

// measure returns the median time of calSlices slices.
func (c *calibrator) measure() time.Duration {
	ds := make([]time.Duration, calSlices)
	for i := range ds {
		ds[i] = c.slice()
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// calExponent is how much more the program slows than the reference
// computation: between the quiet and the busy stretches the reference
// slowed 1.56x while CPU time per request slowed 1.74x to 2.04x across
// the workloads, that is 1.56 to the power 1.3 to 1.6 (NOTES.md).
const calExponent = 1.4

// scale is the factor that converts a time measured between two
// calibrations a and b to the nominal host speed.
func scale(a, b time.Duration) float64 {
	return math.Pow(float64(calNominal)/(float64(a+b)/2), calExponent)
}

// The host also withholds the vCPUs themselves at times: in some
// stretches a single-client request took 1.8x its usual wall time while
// its CPU time did not move. The guest kernel counts that time as steal,
// so the wall times of a segment or a set-up are also multiplied by the
// share of it the vCPUs actually ran.

// stolen returns the steal time of all this machine's vCPUs since boot,
// from the aggregate line of /proc/stat (in USER_HZ ticks of 10 ms).
func stolen() (time.Duration, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond, err
}

// runShare is the share of elapsed during which the vCPUs ran, given
// the steal counted over it. It never goes below 0.1.
func runShare(steal, elapsed time.Duration) float64 {
	return max(0.1, 1-float64(steal)/(float64(runtime.NumCPU())*float64(elapsed)))
}
