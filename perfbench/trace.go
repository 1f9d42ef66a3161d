package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// span is one timed call into a layer. Spans of one epoch share its id as
// their trace id; Parent is the enclosing span's ID (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory while it is on and runs the CPU profiler
// over the same intervals. A nil tracer, or one that is off, records
// nothing: start returns -1 and stop(-1) is a no-op, so the untraced run
// makes exactly the same calls into the program.
type tracer struct {
	t0    time.Time
	on    bool
	epoch int64
	cur   int32
	spans []span

	prof     bytes.Buffer
	profiles [][]byte
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

// start opens a span under the current one and makes it current.
func (t *tracer) start(name string) int32 {
	if t == nil || !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Trace: t.epoch, ID: id, Parent: t.cur,
		Start: int64(time.Since(t.t0))})
	t.cur = id
	return id
}

// stop closes the span start returned and restores its parent as current.
func (t *tracer) stop(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	t.cur = s.Parent
}

// setEpoch sets the trace id for the spans that follow.
func (t *tracer) setEpoch(e int) {
	if t != nil {
		t.epoch = int64(e)
	}
}

// record turns span recording on or off without the profiler (set-up).
func (t *tracer) record(on bool) {
	if t != nil {
		t.on = on
	}
}

// enable turns span recording and the CPU profiler on or off. Call it
// only between epochs, with no span open.
func (t *tracer) enable(on bool) error {
	if t == nil || t.on == on {
		return nil
	}
	t.on = on
	if on {
		t.prof.Reset()
		return pprof.StartCPUProfile(&t.prof)
	}
	pprof.StopCPUProfile()
	t.profiles = append(t.profiles, append([]byte(nil), t.prof.Bytes()...))
	return nil
}

// durations returns the durations of the named spans in microseconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, for each named span, its duration minus the time its
// child spans cover, in microseconds.
func (t *tracer) selfTimes(name string) []float64 {
	if t == nil {
		return nil
	}
	child := make(map[int32]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start-child[s.ID])/1e3)
		}
	}
	return out
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// blockLen is the wall length of a closed-loop block.
const blockLen = 500 * time.Millisecond

// blocks splits a closed-loop phase into blocks of about blockLen of
// closed-loop time. End-to-end rates are medians over the blocks, which a
// short disturbance on a shared box moves less than a whole-phase mean.
// Every second block boundary runs one throwaway set-up (the between
// hook, untimed), so the set-up median spans the run rather than one
// moment of it. In a traced run every other block is traced, so the
// traced and untraced epochs of one run can be compared: their cost ratio
// is trace.overhead_frac. Between pause and resume the caller runs an
// open-loop segment; its time is left out of the block open at the pause,
// and tracing is on throughout it.
type blocks struct {
	tr      *tracer
	between func() error
	start   time.Time
	cpu0    time.Duration
	wall    time.Duration // the open block's wall time before its last pause
	cpu     time.Duration // and its process CPU time
	traced  bool
	epochs  int
	done    []block
}

// block is one finished block.
type block struct {
	traced bool
	epochs int
	wall   time.Duration
	cpu    time.Duration
}

func newBlocks(tr *tracer, between func() error) *blocks {
	return &blocks{tr: tr, between: between, start: time.Now(), cpu0: cpuTime()}
}

// epochDone counts one finished epoch and, past the block length, closes
// the block and starts the next one, with tracing flipped in a traced run.
func (b *blocks) epochDone() error {
	b.epochs++
	el := b.wall + time.Since(b.start)
	if el < blockLen {
		return nil
	}
	b.done = append(b.done, block{traced: b.traced, epochs: b.epochs, wall: el, cpu: b.cpu + cpuTime() - b.cpu0})
	if err := b.tr.enable(false); err != nil {
		return err
	}
	if len(b.done)%2 == 0 {
		if err := b.between(); err != nil {
			return err
		}
	}
	if b.tr != nil {
		b.traced = !b.traced
		if err := b.tr.enable(b.traced); err != nil {
			return err
		}
	}
	b.epochs, b.wall, b.cpu = 0, 0, 0
	b.start, b.cpu0 = time.Now(), cpuTime()
	return nil
}

// pause sets the open block aside for an open-loop segment.
func (b *blocks) pause() error {
	b.wall += time.Since(b.start)
	b.cpu += cpuTime() - b.cpu0
	return b.tr.enable(true)
}

// resume picks the open block up again after an open-loop segment.
func (b *blocks) resume() error {
	err := b.tr.enable(b.traced) // stopping the profiler takes a while
	b.start, b.cpu0 = time.Now(), cpuTime()
	return err
}

// finish drops the last, partial block and turns tracing off.
func (b *blocks) finish() error { return b.tr.enable(false) }

// rates lists the untraced blocks' epochs per wall second.
func (b *blocks) rates() []float64 {
	var xs []float64
	for _, k := range b.done {
		if !k.traced {
			xs = append(xs, float64(k.epochs)/k.wall.Seconds())
		}
	}
	return xs
}

// rate is the median over untraced blocks of epochs per wall second. The
// run's meta line records the blocks' quartiles too: the host's speed
// changes from second to second, by up to 1.7x on the 2-core box the
// benchmark was defined on, and they show how much a run saw of it.
func (b *blocks) rate(r *run) float64 {
	xs := b.rates()
	r.meta["blocks"] = len(xs)
	r.meta["block_rate_q1"] = quantile(xs, 0.25)
	r.meta["block_rate_q3"] = quantile(xs, 0.75)
	return median(xs)
}

// cpuPerEpoch is the median over untraced blocks of process CPU per epoch.
func (b *blocks) cpuPerEpoch() time.Duration {
	var xs []float64
	for _, k := range b.done {
		if !k.traced {
			xs = append(xs, float64(k.cpu)/float64(k.epochs))
		}
	}
	return time.Duration(median(xs))
}

// overhead is the traced epochs' mean wall time over the untraced
// epochs', minus one.
func (b *blocks) overhead() float64 {
	var wall [2]time.Duration
	var epochs [2]int
	for _, k := range b.done {
		i := 0
		if k.traced {
			i = 1
		}
		wall[i] += k.wall
		epochs[i] += k.epochs
	}
	if epochs[0] == 0 || epochs[1] == 0 {
		return 0
	}
	un := float64(wall[0]) / float64(epochs[0])
	tr := float64(wall[1]) / float64(epochs[1])
	return tr/un - 1
}

// traceDir is where a traced run writes its spans file and CPU table,
// relative to the root of the checkout the benchmark runs from.
const traceDir = ".bench_build/trace"

// finishTrace writes the spans file and the per-module CPU table, and
// reports the CPU attribution metrics.
func (r *run) finishTrace() error {
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", r.workload, r.seed))
	if err := r.tr.writeSpans(base + "-spans.jsonl"); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	b, err := bucketProfiles(r.tr.profiles)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, name := range cpuBuckets {
		r.setLayer("cpu."+name, "ratio", b.share(name))
	}
	r.meta["cpu_profile_samples"] = b.total
	r.meta["spans"] = len(r.tr.spans)
	return os.WriteFile(base+"-cpu.txt", []byte(b.table()), 0o644)
}
