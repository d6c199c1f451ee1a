package main

import (
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// chunkedQuantile splits samples, in the order they were taken, into
// consecutive chunks of size chunk and returns the median over the chunks of
// each chunk's q-quantile, and how many chunks there were. A slow spell on
// the machine then moves one or two chunks, not the result. With chunk 0,
// or fewer samples than one chunk, it returns the q-quantile of all of them.
func chunkedQuantile(samples []float64, q float64, chunk int) (float64, int) {
	if chunk <= 0 || len(samples) < chunk {
		return quantile(samples, q), 0
	}
	var qs []float64
	for i := 0; i+chunk <= len(samples); i += chunk {
		qs = append(qs, quantile(samples[i:i+chunk], q))
	}
	return median(qs), len(qs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolen is the CPU time the hypervisor has taken from this machine's
// CPUs so far (the steal column of /proc/stat, in USER_HZ = 100 ticks a
// second); 0 where it cannot be read.
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
	return time.Duration(ticks) * 10 * time.Millisecond
}

// unstolen is the share of an interval of length d that the hypervisor
// did not steal, given the steal it accrued over all cpus CPUs.
func unstolen(d, steal time.Duration, cpus int) float64 {
	if d <= 0 {
		return 1
	}
	return max(0.1, 1-float64(steal)/(float64(cpus)*float64(d)))
}

// peakRSSMB is the process's maximum resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rtSample is a snapshot of the runtime/metrics the traced run reads.
type rtSample struct {
	gcCPU    float64
	idleCPU  float64
	totalCPU float64
	schedLat *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		gcCPU:    s[0].Value.Float64(),
		idleCPU:  s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		schedLat: s[3].Value.Float64Histogram(),
	}
}

// rtDelta accumulates runtime/metrics differences over several windows.
type rtDelta struct {
	gcCPU      float64
	busyCPU    float64
	latCounts  []uint64
	latBuckets []float64
}

func (d *rtDelta) add(a, b rtSample) {
	d.gcCPU += b.gcCPU - a.gcCPU
	d.busyCPU += (b.totalCPU - b.idleCPU) - (a.totalCPU - a.idleCPU)
	if d.latCounts == nil {
		d.latCounts = make([]uint64, len(b.schedLat.Counts))
		d.latBuckets = b.schedLat.Buckets
	}
	for i := range b.schedLat.Counts {
		d.latCounts[i] += b.schedLat.Counts[i] - a.schedLat.Counts[i]
	}
}

// gcShare is the share of busy (non-idle) CPU time the GC took.
func (d *rtDelta) gcShare() float64 {
	if d.busyCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.busyCPU
}

// schedLatencyP50 is the median goroutine scheduling latency in seconds,
// taken as the midpoint of the histogram bucket holding the median.
func (d *rtDelta) schedLatencyP50() float64 {
	var total uint64
	for _, c := range d.latCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i, c := range d.latCounts {
		seen += c
		if 2*seen >= total {
			lo, hi := d.latBuckets[i], d.latBuckets[i+1]
			if math.IsInf(lo, -1) {
				return hi
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return (lo + hi) / 2
		}
	}
	return 0
}

// fitThroughOrigin fits y ≈ b·x by least squares.
func fitThroughOrigin(x, y []float64) float64 {
	var xy, xx float64
	for i := range x {
		xy += x[i] * y[i]
		xx += x[i] * x[i]
	}
	if xx == 0 {
		return 0
	}
	return xy / xx
}

// fit2 fits y ≈ b1·x1 + b2·x2 by least squares; ok is false when the
// normal equations are singular.
func fit2(x1, x2, y []float64) (b1, b2 float64, ok bool) {
	var a11, a12, a22, c1, c2 float64
	for i := range y {
		a11 += x1[i] * x1[i]
		a12 += x1[i] * x2[i]
		a22 += x2[i] * x2[i]
		c1 += x1[i] * y[i]
		c2 += x2[i] * y[i]
	}
	det := a11*a22 - a12*a12
	if det == 0 || math.Abs(det) < 1e-12*a11*a22 {
		return 0, 0, false
	}
	return (c1*a22 - c2*a12) / det, (a11*c2 - a12*c1) / det, true
}
