package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ioCounters reads the bytes and calls the process has passed to write
// system calls (wchar, syscw in /proc/self/io). Both ends of the loopback
// shard connections live in this process, so socket traffic counts once
// per write.
func ioCounters() (wchar, syscw int64) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "wchar":
			wchar = n
		case "syscw":
			syscw = n
		}
	}
	return wchar, syscw
}

// cpuModel names the processor from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// usage is a snapshot of the process counters a phase is measured by.
type usage struct {
	mallocs       uint64
	allocBytes    uint64
	gcCycles      uint32
	gcPause       time.Duration
	gcCPU, allCPU float64 // runtime/metrics CPU classes, seconds
	wchar, syscw  int64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	metrics.Read(cpuSamples)
	u := usage{
		mallocs:    m.Mallocs,
		allocBytes: m.TotalAlloc,
		gcCycles:   m.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs),
	}
	if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = cpuSamples[0].Value.Float64()
		u.allCPU = cpuSamples[1].Value.Float64()
	}
	u.wchar, u.syscw = ioCounters()
	return u
}

// delta is the difference between two usage snapshots.
type delta struct {
	mallocs       float64
	allocBytes    float64
	gcCycles      float64
	gcPause       time.Duration
	gcCPUFrac     float64
	wchar, syscw  float64
	tuples, vsecs float64
}

func (a usage) to(b usage) delta {
	d := delta{
		mallocs:    float64(b.mallocs - a.mallocs),
		allocBytes: float64(b.allocBytes - a.allocBytes),
		gcCycles:   float64(b.gcCycles - a.gcCycles),
		gcPause:    b.gcPause - a.gcPause,
		wchar:      float64(b.wchar - a.wchar),
		syscw:      float64(b.syscw - a.syscw),
	}
	if all := b.allCPU - a.allCPU; all > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / all
	}
	return d
}

// heapEpochs is how many untimed epochs live_heap_mb averages over: two
// failover checkpoint cycles, so a remote run's replay log is counted at
// every fill level rather than wherever the timed phase happened to stop.
const heapEpochs = 16

// liveHeapMB runs epoch(0..heapEpochs-1), forcing a collection after each,
// and reports the mean HeapInuse in MiB.
func liveHeapMB(epoch func(i int)) float64 {
	var sum float64
	for i := 0; i < heapEpochs; i++ {
		epoch(i)
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		sum += float64(m.HeapInuse)
	}
	return sum / heapEpochs / (1 << 20)
}

// setMemLayer reports the Go runtime layer over a measured phase: work
// per input tuple, and GC per virtual second.
func (r *run) setMemLayer(d delta) {
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	r.setLayer("mem.allocs_per_tuple", "count", per(d.mallocs, d.tuples))
	r.setLayer("mem.bytes_per_tuple", "B", per(d.allocBytes, d.tuples))
	r.setLayer("gc.cycles", "1/vsec", per(d.gcCycles, d.vsecs))
	r.setLayer("gc.cpu_frac", "ratio", d.gcCPUFrac)
	r.setLayer("gc.pause_ms_total", "ms", ms(d.gcPause))
	r.setLayer("wire.bytes_per_tuple", "B", per(d.wchar, d.tuples))
	r.setLayer("wire.writes_per_epoch", "count", per(d.syscw, d.vsecs))
}

// setupReps is how many set-ups a run makes; setup_s is their median.
const setupReps = 15

// setups collects a run's set-up times: the measured rig's or app's, then
// the throwaway set-ups made between closed-loop blocks.
type setups struct {
	total, parse, optimize, compile, workers []float64
}

func (s *setups) add(d time.Duration, t deployTimes) {
	s.total = append(s.total, d.Seconds())
	s.parse = append(s.parse, us(t.parse))
	s.optimize = append(s.optimize, ms(t.optimize))
	s.compile = append(s.compile, ms(t.compile))
	s.workers = append(s.workers, ms(t.workers))
}

func (s *setups) done() bool { return len(s.total) >= setupReps }

// extra returns the blocks' between hook: each call makes one throwaway
// set-up with setup, times it and tears it down, until the run has
// setupReps set-ups.
func (s *setups) extra(r *run, setup func(quiet *run) (deployTimes, func(), error)) func() error {
	return func() error {
		if s.done() {
			return nil
		}
		quiet := quietRun(r)
		t := time.Now()
		times, teardown, err := setup(quiet)
		if err != nil {
			return err
		}
		s.add(time.Since(t), times)
		teardown()
		if quiet.failed > 0 {
			return fmt.Errorf("set-up: %v", quiet.mismatches)
		}
		return nil
	}
}

// report sets setup_s and the deploy layers, each a median over set-ups.
func (s *setups) report(r *run) {
	r.setE2E("setup_s", "s", median(s.total))
	r.meta["setup_reps"] = len(s.total)
	r.setLayer("sql.parse_us", "us", median(s.parse))
	r.setLayer("federation.optimize_ms", "ms", median(s.optimize))
	r.setLayer("plan.compile_ms", "ms", median(s.compile))
	r.setLayer("worker.start_ms", "ms", median(s.workers))
}

// quietRun is a run for side work (throwaway set-ups, the oracle, the
// radio twin): its operations are counted apart from the measured run's,
// it records no spans, and its refreshes have no staleness limit.
func quietRun(r *run) *run {
	return &run{seed: r.seed, staleLimit: time.Hour}
}
