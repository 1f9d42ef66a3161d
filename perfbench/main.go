// Command perfbench is the SmartCIS benchmark. It runs one workload
// (building, ingest or remote) through the public functions of the repo's
// modules, checks the workload's results, and prints one JSON object as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, taken from spans the benchmark records around
// each call it makes and from a CPU profile bucketed by module. See
// METRICS.md for every metric's definition.
//
//	go run . -workload ingest -seed 42 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation: its settings, the tracer and the accumulated
// operation counts, checks and metrics.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tr       *tracer

	// staleLimit is the workload's fixed staleness limit: a display
	// refresh that returns later than this after its epoch was due fails.
	staleLimit time.Duration

	attempted, failed int64
	mismatches        []string

	e2e   map[string]metric // end-to-end metrics (untraced runs)
	layer map[string]metric // per-layer metrics (traced runs)
	meta  map[string]any
}

// op counts one operation (epoch push, display refresh, deploy or
// guidance request) and whether it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.mismatches) < 10 {
			r.mismatches = append(r.mismatches, err.Error())
		}
	}
}

// mismatch records a correctness-check failure; it fails the run.
func (r *run) mismatch(format string, args ...any) {
	r.attempted++
	r.failed++
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

func (r *run) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
var perLayer = [][2]string{
	{"stream.push_us_p50", "us"}, {"stream.push_us_p99", "us"},
	{"plan.flush_us_p50", "us"}, {"plan.flush_us_p99", "us"},
	{"stream.snapshot_us_p50", "us"}, {"stream.snapshot_us_p99", "us"},
	{"stream.result_rows", "count"}, {"stream.result_versions_per_epoch", "count"},
	{"stream.advance_us_p50", "us"},
	{"plan.share_chains", "count"}, {"plan.share_attached", "count"}, {"plan.share_ratio", "ratio"},
	{"plan.parallel_speedup", "ratio"},
	{"sql.parse_us", "us"}, {"federation.optimize_ms", "ms"}, {"plan.compile_ms", "ms"}, {"worker.start_ms", "ms"},
	{"wire.bytes_per_tuple", "B"}, {"wire.writes_per_epoch", "count"},
	{"core.epoch_ms_p50", "ms"}, {"core.epoch_ms_p99", "ms"},
	{"sensornet.msgs_per_vsec", "msgs"}, {"sensornet.dropped_per_vsec", "msgs"},
	{"sensornet.energy_mj_per_vsec", "mJ"}, {"routing.guide_us_p50", "us"},
	{"mem.allocs_per_tuple", "count"}, {"mem.bytes_per_tuple", "B"},
	{"gc.cycles", "1/vsec"}, {"gc.cpu_frac", "ratio"}, {"gc.pause_ms_total", "ms"},
	{"gen.lag_ms_p99", "ms"}, {"gen.build_us_p50", "us"},
	{"trace.overhead_frac", "ratio"},
	{"check.float_ulp_rows", "count"}, {"staleness.samples", "count"}, {"failed_frac", "ratio"},
}

func init() {
	for _, b := range cpuBuckets {
		perLayer = append(perLayer, [2]string{"cpu." + b, "ratio"})
	}
}

var workloads = map[string]func(*run) error{
	"building": runBuilding,
	"ingest":   func(r *run) error { return runStream(r, false) },
	"remote":   func(r *run) error { return runStream(r, true) },
}

func main() {
	name := flag.String("workload", "", "workload: building, ingest or remote")
	seed := flag.Int64("seed", 42, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in wall seconds")
	trace := flag.Int("trace", 0, "1 = traced run: report per-layer metrics, write spans and the CPU table")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	r := &run{
		workload:   *name,
		seed:       *seed,
		seconds:    *seconds,
		traced:     *trace == 1,
		staleLimit: time.Second,
		e2e:        map[string]metric{},
		layer:      map[string]metric{},
		meta:       map[string]any{},
	}
	if r.traced {
		r.tr = newTracer()
	}
	r.meta["workload"] = *name
	r.meta["seed"] = *seed
	r.meta["seconds"] = *seconds
	r.meta["trace"] = *trace
	r.meta["nproc"] = runtime.NumCPU()
	r.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.meta["go_version"] = runtime.Version()
	r.meta["cpu_model"] = cpuModel()
	r.meta["staleness_limit_ms"] = ms(r.staleLimit)

	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	metrics := r.e2e
	if r.traced {
		metrics = r.layer
		for _, m := range perLayer {
			if _, ok := metrics[m[0]]; !ok {
				metrics[m[0]] = metric{0, m[1]}
			}
		}
	}
	for _, m := range r.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *name, m)
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
	if r.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operation\n", *name)
		os.Exit(1)
	}
	meta, err := json.Marshal(map[string]any{"meta": r.meta})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printTable(r, metrics)
	fmt.Println(string(meta))
	fmt.Println(string(out))
}

// printTable prints the metrics by name and unit for a human reader.
func printTable(r *run, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%v trace=%v\n", r.workload, r.seed, r.seconds, r.traced)
	for _, n := range names {
		fmt.Printf("%-32s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}
