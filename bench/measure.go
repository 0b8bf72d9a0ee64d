package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// cpuNs is the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// The reference kernel is a fixed amount of work that is not the program
// under test: a sort, a four-lane hash over 256 KiB and float formatting, all
// in static buffers. It allocates nothing, so neither the garbage collector
// nor the size of the program's heap can move it. This shared host slows by
// tens of percent for minutes at a time (a dependent-chain ALU loop does not
// notice, real code does), so every timing is taken next to runs of this
// kernel and scaled by refNominalMs / observed: timings are reported as they
// would read on a host that runs the kernel in refNominalMs, which is this
// box when it is quiet.
const (
	refRounds    = 6
	refNominalMs = 2.5
)

var (
	refTemplate, refWork [4096]uint32
	refBytes             [1 << 18]byte
	refOut               []byte
	refSink              int
)

func init() {
	x := uint32(2463534242)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := range refTemplate {
		refTemplate[i] = next()
	}
	for i := range refBytes {
		refBytes[i] = byte(next())
	}
}

// refKernel runs the reference kernel once and returns its wall time in ms.
func refKernel() float64 {
	const prime = 1099511628211
	t0 := time.Now()
	for round := 0; round < refRounds; round++ {
		copy(refWork[:], refTemplate[:])
		slices.Sort(refWork[:])
		var h [4]uint64
		for i := 0; i+4 <= len(refBytes); i += 4 {
			h[0] = (h[0] ^ uint64(refBytes[i])) * prime
			h[1] = (h[1] ^ uint64(refBytes[i+1])) * prime
			h[2] = (h[2] ^ uint64(refBytes[i+2])) * prime
			h[3] = (h[3] ^ uint64(refBytes[i+3])) * prime
		}
		refOut = refOut[:0]
		for i := 0; i < 400; i++ {
			refOut = strconv.AppendFloat(refOut, float64(refWork[i])*1.0001+float64(h[i&3]&1023), 'g', -1, 64)
		}
		refSink += len(refOut)
	}
	return msSince(t0)
}

// calibrate is the host yardstick outside the window: the median of five
// reference-kernel runs, in ms.
func calibrate() float64 {
	refKernel() // the first run after a pause pays for cold caches
	ms := make([]float64, 5)
	for i := range ms {
		ms[i] = refKernel()
	}
	return median(ms)
}

// scaler turns raw timings into reference-scaled ones. next runs the
// reference kernel and returns the scale for the stretch of work since the
// previous run: refNominalMs over the mean of the two runs around it.
type scaler struct{ ref float64 }

func newScaler() *scaler { return &scaler{ref: refKernel()} }

func (s *scaler) next() float64 {
	after := refKernel()
	scale := refNominalMs / ((s.ref + after) / 2)
	s.ref = after
	return scale
}

// calibDriftLimit marks a run noisy: the host's speed on the reference
// kernel moved by more than this between the start and the end of the run.
const calibDriftLimit = 0.10

// window is what one measured run of whole passes observed.
type window struct {
	passes    int
	attempted int
	failed    int
	failures  []string // the first few
	// Per-pass series, already scaled by the reference kernel. Each
	// end-to-end timing is the median over passes, so a stall that hits a few
	// passes does not move it.
	p50Ms, tailMs, wallS, cpuMs []float64
	refMs                       []float64 // traced runs: the reference kernel, raw
	mallocs, allocBytes         uint64
	heapLiveMB                  float64
}

func (w *window) fail(err error) {
	w.failed++
	if len(w.failures) < 5 {
		w.failures = append(w.failures, err.Error())
	}
}

// measure drives in.op in a closed loop with one client: whole passes of
// opsPerPass operations until at least seconds have elapsed. A pass runs in
// chunks of chunkOps operations (about a tenth of a second) with a reference
// kernel run between chunks; a chunk's wall time, CPU time and latencies are
// scaled by the two reference runs around it. Those and the allocation
// counters bracket only the operations; the reference kernel, sorting, aux
// and the clock reads between chunks are outside.
func measure(in *instance, def workloadDef, seconds float64) *window {
	w := &window{}
	lat := make([]float64, def.opsPerPass)
	var m0, m1 runtime.MemStats
	runtime.GC()
	start := time.Now()
	sc := newScaler()
	for time.Since(start).Seconds() < seconds || w.passes < 3 {
		wallS, cpuMs := 0.0, 0.0
		for lo := 0; lo < len(lat); lo += def.chunkOps {
			chunk := lat[lo:min(lo+def.chunkOps, len(lat))]
			runtime.ReadMemStats(&m0)
			c0, t0 := cpuNs(), time.Now()
			for i := range chunk {
				s := time.Now()
				err := in.op(lo + i)
				chunk[i] = msSince(s)
				if err != nil {
					w.fail(err)
				}
			}
			wall, cpu := time.Since(t0), cpuNs()-c0
			runtime.ReadMemStats(&m1)
			w.mallocs += m1.Mallocs - m0.Mallocs
			w.allocBytes += m1.TotalAlloc - m0.TotalAlloc
			scale := sc.next()
			for i := range chunk {
				chunk[i] *= scale
			}
			wallS += wall.Seconds() * scale
			cpuMs += float64(cpu) / 1e6 * scale
		}
		w.passes++
		w.attempted += len(lat)
		w.wallS = append(w.wallS, wallS)
		w.cpuMs = append(w.cpuMs, cpuMs)
		sort.Float64s(lat)
		w.p50Ms = append(w.p50Ms, quantile(lat, 0.5))
		w.tailMs = append(w.tailMs, quantile(lat, def.tailQ))
		if in.aux != nil {
			in.aux()
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	w.heapLiveMB = float64(m1.HeapAlloc) / (1 << 20)
	return w
}

// endToEnd turns a window into the nine end-to-end metrics.
func endToEnd(w *window, def workloadDef, setupS, quality float64) map[string]metric {
	ops := float64(def.opsPerPass)
	total := float64(w.attempted)
	values := map[string]float64{
		"setup_s":         setupS,
		"latency_p50_ms":  median(w.p50Ms),
		"latency_tail_ms": median(w.tailMs),
		"throughput_rps":  ops / median(w.wallS),
		"cpu_ms_per_op":   median(w.cpuMs) / ops,
		"allocs_per_op":   float64(w.mallocs) / total,
		"alloc_kb_per_op": float64(w.allocBytes) / total / 1024,
		"heap_live_mb":    w.heapLiveMB,
		"plan_quality_x":  quality,
	}
	out := make(map[string]metric, len(endToEndDefs))
	for _, d := range endToEndDefs {
		out[d.name] = metric{values[d.name], d.unit}
	}
	return out
}

// setupOnce builds the workload from nothing and ends with its fixed-count
// warm-up: store open, artifact load and verify, server build, plan
// generation, cache pre-fill, warm-up. The returned time is reference-scaled
// like every other timing: the build as one stretch, the warm-up in chunks.
func setupOnce(e *env, def workloadDef, seed int64) (*instance, float64, error) {
	sc := newScaler()
	t0 := time.Now()
	in, err := def.setup(e, seed)
	if err != nil {
		return nil, 0, fmt.Errorf("bench: %s set-up: %w", def.name, err)
	}
	total := time.Since(t0).Seconds() * sc.next()
	for lo := 0; lo < def.warmOps; lo += def.chunkOps {
		t0 = time.Now()
		for i := lo; i < min(lo+def.chunkOps, def.warmOps); i++ {
			if err := in.warm(i); err != nil {
				in.close()
				return nil, 0, fmt.Errorf("bench: %s warm-up: %w", def.name, err)
			}
		}
		total += time.Since(t0).Seconds() * sc.next()
	}
	return in, total, nil
}
