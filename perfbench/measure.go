package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// round is one set-up / measured phase / teardown cycle of a workload,
// run in a process of its own and reported to the parent as JSON. The
// measured phase is bracketed by meter.begin and meter.end; the
// workload times its own set-up and fills in spans and counts.
type round struct {
	Setup      time.Duration `json:"setup_ns"`
	Wall       time.Duration `json:"wall_ns"`
	CPU        time.Duration `json:"cpu_ns"`
	Ops        int           `json:"ops"` // operations the measured phase completed
	PeakHeap   uint64        `json:"peak_heap"`
	Mallocs    uint64        `json:"mallocs"`
	AllocBytes uint64        `json:"alloc_bytes"`
	// Leaked counts goroutines still alive after teardown.
	Leaked int `json:"leaked_goroutines"`
	// Steal is the machine-wide share of CPU time the hypervisor gave
	// other guests during the measured phase.
	Steal float64 `json:"steal"`

	Spans  map[string][]float64 `json:"spans"`  // per-layer span samples, in the span's unit
	Counts map[string]float64   `json:"counts"` // per-layer counts
	Fold   *fold                `json:"fold,omitempty"`
}

func newRound() *round {
	return &round{Spans: map[string][]float64{}, Counts: map[string]float64{}}
}

// span records one sample of a named span.
func (r *round) span(name string, v float64) { r.Spans[name] = append(r.Spans[name], v) }

// meter brackets a round's measured phase: wall clock, process CPU,
// allocation counters and the live-heap peak.
type meter struct {
	heap *heapPeak

	r      *round
	t0     time.Time
	cpu0   time.Duration
	ticks0 cpuTicks
	stats0 runtime.MemStats
}

// begin starts the measured phase of r.
func (m *meter) begin(r *round) {
	m.r = r
	runtime.ReadMemStats(&m.stats0)
	m.heap.reset()
	m.cpu0 = processCPU()
	m.ticks0 = readCPUTicks()
	m.t0 = time.Now()
}

// end closes the measured phase, which completed ops operations.
func (m *meter) end(ops int) {
	wall := time.Since(m.t0)
	cpu := processCPU() - m.cpu0
	steal := readCPUTicks().stealShare(m.ticks0)
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	r := m.r
	r.Wall, r.CPU, r.Ops, r.Steal = wall, cpu, ops, steal
	r.PeakHeap = m.heap.max.Load()
	r.Mallocs = st.Mallocs - m.stats0.Mallocs
	r.AllocBytes = st.TotalAlloc - m.stats0.TotalAlloc
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeak tracks the largest post-GC live heap: a finalizer on a
// sentinel runs once per collection, reads the live heap the collection
// marked, and re-arms itself.
type heapPeak struct {
	max  atomic.Uint64
	stop atomic.Bool
}

// gcSentinel is large enough and holds a pointer, so the runtime's tiny
// allocator never batches it with other objects (which would delay its
// finalizer).
type gcSentinel struct {
	_ *byte
	_ [2]uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.reset()
	h.arm()
	return h
}

func (h *heapPeak) arm() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
		h.observe()
		if !h.stop.Load() {
			h.arm()
		}
	})
}

// reset restarts the peak from the current live heap.
func (h *heapPeak) reset() { h.max.Store(liveHeap()) }

func (h *heapPeak) observe() {
	v := liveHeap()
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// close stops re-arming after the next collection.
func (h *heapPeak) close() { h.stop.Store(true) }

// liveHeap is the heap the last completed collection found live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// cpuTicks is the machine-wide CPU time split of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks reads the aggregate cpu line of /proc/stat; zero where
// the file does not exist.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		if i < 8 { // user … steal; guest time is already in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of machine CPU time the hypervisor gave to
// other guests since since: contention a run cannot see otherwise.
// The kernel counts in 10ms ticks, which bounds its resolution.
func (t cpuTicks) stealShare(since cpuTicks) float64 {
	if t.total <= since.total {
		return 0
	}
	return float64(t.steal-since.steal) / float64(t.total-since.total)
}
