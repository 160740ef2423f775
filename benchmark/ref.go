package main

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// refKernel is the reference workload timings are divided by: one
// math/big modexp with a 2048-bit odd modulus and a 1024-bit exponent
// drawn from a fixed seed. On a shared host its cost tracks whatever is
// slowing the bignum-heavy workloads at that moment, which medians and
// CPU time do not remove.
type refKernel struct {
	b, e, m *big.Int
	// target is how many samples a region aims for.
	target int
}

func newRefKernel(target int) *refKernel {
	rng := rand.New(rand.NewSource(refSeed))
	m := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 2048))
	m.SetBit(m, 0, 1)
	m.SetBit(m, 2047, 1)
	e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 1024))
	e.SetBit(e, 1023, 1)
	return &refKernel{b: new(big.Int).Rand(rng, m), e: e, m: m, target: target}
}

// sample runs refOpsPerSample modexps on each of par goroutines at once
// and returns the mean nanoseconds per op across them, so the kernel
// meets the same core sharing the measured slice did.
func (k *refKernel) sample(par int) float64 { return k.run(par, refOpsPerSample) }

// run is sample with a chosen op count. A short untimed run before a
// seam's samples wakes the cores: a vCPU that idled even a few
// milliseconds runs its next modexps markedly slower.
func (k *refKernel) run(par, ops int) float64 {
	if par < 1 {
		par = 1
	}
	per := make([]float64, par)
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start := time.Now()
			for i := 0; i < ops; i++ {
				new(big.Int).Exp(k.b, k.e, k.m)
			}
			per[g] = float64(time.Since(start)) / float64(ops)
		}(g)
	}
	wg.Wait()
	return mean(per)
}

// seamPoint is the reference reading taken at one synchronous seam.
type seamPoint struct {
	at   time.Time
	mean float64
}

// region is one timed region with reference samples interleaved at its
// seams. Sampling time and allocations are subtracted from what the
// region reports, so calibration never counts as workload. A region is
// driven from one goroutine: the one the program calls back on.
type region struct {
	k       *refKernel
	par     int
	perSeam int
	// settle, when set, makes every seam first wait until this process
	// and the listed worker processes have stopped burning CPU. The
	// secure engines refill their randomizer pools in the background
	// after every batch; a reference sample taken while they run shares
	// the cores with them and reads up to 3× slow. The wait counts as
	// workload time: the refill is the program's work, and on saturated
	// cores doing it here or during the next batch costs the same.
	settle bool
	pids   []int

	start    time.Time
	cal      time.Duration
	calAlloc uint64
	calMalls uint64
	// seamStart and seamEnd bound the latest seam's sampling: after the
	// settle wait, and after the last sample.
	seamStart, seamEnd time.Time

	samples []float64
	ioSamps []float64
	seams   []seamPoint
	ms0     runtime.MemStats
}

// beginRegion opens a region expected to offer about seams seams; each
// seam takes enough samples to reach the kernel's target over the region.
func beginRegion(k *refKernel, par, seams int, settle bool, pids ...int) *region {
	return beginRegionN(k, par, seams, k.target, settle, pids...)
}

// beginRegionN is beginRegion with a chosen sample target.
func beginRegionN(k *refKernel, par, seams, target int, settle bool, pids ...int) *region {
	per := 1
	if seams < target {
		per = (target + seams - 1) / max(seams, 1)
	}
	r := &region{k: k, par: par, perSeam: per, settle: settle, pids: pids}
	runtime.ReadMemStats(&r.ms0)
	r.start = time.Now()
	r.seam()
	return r
}

// seam takes this seam's reference samples. The caller must be at a
// point where the measured program is idle. It returns how long it
// waited for background work to settle, which is workload time the
// caller may want to attribute.
func (r *region) seam() (settled time.Duration) {
	if r == nil {
		return 0
	}
	if r.settle {
		w0 := time.Now()
		quiesce(r.pids)
		settled = time.Since(w0)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	r.k.run(r.par, refWarmOps)
	sum := 0.0
	for i := 0; i < r.perSeam; i++ {
		s := r.k.sample(r.par)
		r.samples = append(r.samples, s)
		sum += s
	}
	runtime.ReadMemStats(&after)
	r.seams = append(r.seams, seamPoint{at: t0, mean: sum / float64(r.perSeam)})
	r.seamStart, r.seamEnd = t0, time.Now()
	r.cal += r.seamEnd.Sub(t0)
	r.calAlloc += after.TotalAlloc - before.TotalAlloc
	r.calMalls += after.Mallocs - before.Mallocs
	return settled
}

// quiesce returns once this process and the given others have used
// almost no CPU over a short window, or after 400 ms. Its own CPU time
// has microsecond resolution; other processes' comes from /proc in
// 10 ms ticks, so their window is longer.
func quiesce(pids []int) {
	window := 2 * time.Millisecond
	if len(pids) > 0 {
		window = 25 * time.Millisecond
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	for {
		c0, t0 := cpuTime(pids), time.Now()
		time.Sleep(window)
		busy := cpuTime(pids) - c0
		if busy < time.Since(t0)/5 || time.Now().After(deadline) {
			return
		}
	}
}

// cpuTime is the CPU time consumed so far by this process plus the
// listed ones.
func cpuTime(pids []int) time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	total := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	for _, pid := range pids {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name; utime and stime
		// are the 12th and 13th of those, in 10 ms ticks.
		rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
		f := strings.Fields(rest)
		if len(f) < 13 {
			continue
		}
		ut, _ := strconv.ParseInt(f[11], 10, 64)
		st, _ := strconv.ParseInt(f[12], 10, 64)
		total += time.Duration(ut+st) * 10 * time.Millisecond
	}
	return total
}

// calSince reports the calibration time spent so far; callers timing a
// sub-interval subtract the difference of two readings.
func (r *region) calSince() time.Duration {
	if r == nil {
		return 0
	}
	return r.cal
}

// regionStats is what a closed region measured.
type regionStats struct {
	Wall       time.Duration // start to end, calibration included
	Cal        time.Duration
	RefMean    float64 // ns per reference op
	RefCV      float64
	Samples    int
	AllocBytes uint64 // workload only
	Mallocs    uint64
	seams      []seamPoint
}

func (r *region) end() regionStats {
	r.seam()
	wall := time.Since(r.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := mean(r.samples)
	return regionStats{
		Wall:       wall,
		Cal:        r.cal,
		RefMean:    m,
		RefCV:      stddev(r.samples, m) / m,
		Samples:    len(r.samples),
		AllocBytes: ms.TotalAlloc - r.ms0.TotalAlloc - r.calAlloc,
		Mallocs:    ms.Mallocs - r.ms0.Mallocs - r.calMalls,
		seams:      r.seams,
	}
}

// ref converts a wall duration measured inside the region to reference
// seconds: wall × nominal ÷ mean reference cost of the region.
func (s regionStats) ref(d time.Duration) float64 {
	return d.Seconds() * refNominalNs / s.RefMean
}

// refLocal normalises one operation by the seams bracketing it, so a
// host-speed flip inside the region does not smear into percentiles.
// It returns reference seconds.
func (s regionStats) refLocal(o op) float64 {
	start, end := o.start, o.end
	d := end.Sub(start) - o.cal + o.after
	i := sort.Search(len(s.seams), func(i int) bool { return s.seams[i].at.After(start) })
	j := sort.Search(len(s.seams), func(j int) bool { return !s.seams[j].at.Before(end) })
	if i == 0 || j == len(s.seams) {
		return s.ref(d)
	}
	local := (s.seams[i-1].mean + s.seams[j].mean) / 2
	return d.Seconds() * refNominalNs / local
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func stddev(v []float64, m float64) float64 {
	if len(v) < 2 {
		return 0
	}
	ss := 0.0
	for _, x := range v {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(v)-1))
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
