package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"aspen/internal/catalog"
	"aspen/internal/data"
	"aspen/internal/federation"
	"aspen/internal/plan"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// This file is the ingest and remote workloads: two reading streams keyed
// by desk id feed standing queries deployed through sql, federation and
// plan onto one stream engine. Ingest runs the heavy join at P = nproc,
// a two-phase global rollup and 16 shared dashboards in process; remote
// runs the heavy join and the rollup at P = 2 on two loopback shard
// workers with failover armed.

const (
	epochLen   = 1024 // readings per epoch; an epoch spans one virtual second
	deskKeys   = 1024 // distinct desk ids
	warmEpochs = 3    // fill the 2-second windows before timing
	dashboards = 16
	ulpTol     = 1e-9
)

// offeredRate is the open-loop rate in epochs per wall second: about half
// the closed-loop capacity of the code the benchmark was defined on, on a
// 2-core box.
var offeredRate = map[bool]float64{false: 72, true: 48}

// openSamples is how many staleness samples the open-loop segments take
// in all: enough for ten beyond p99. They run just long enough for them,
// at most maxOpenShare of the timed phase, so the closed loop, whose rates
// shift most with the host's speed, gets the rest.
const (
	openSamples  = 1100
	maxOpenShare = 0.6
	segments     = 10 // open-loop segments, each followed by a closed-loop one
)

const heavySQL = `SELECT a.desk, avg(a.value) AS temp, avg(b.value) AS light, count(*) AS pairs
	FROM TempReadings a [RANGE 2 SECONDS], LightReadings b [RANGE 2 SECONDS]
	WHERE a.desk = b.desk GROUP BY a.desk ORDER BY a.desk`

const rollupSQL = `SELECT avg(t.value) AS avg_temp, count(*) AS n FROM TempReadings t [RANGE 2 SECONDS]`

// dashCuts are the dashboards' thresholds: 16 dashboards over 4 distinct
// predicates, so the shared compile builds one window chain and 4 layers.
var dashCuts = []float64{26, 26.5, 27, 27.5}

func dashSQL(i int) string {
	return fmt.Sprintf(`SELECT d%d.desk, d%d.value FROM TempReadings d%d [RANGE 2 SECONDS]
		WHERE d%d.value > %v ORDER BY value DESC LIMIT 10`, i, i, i, i, dashCuts[i%len(dashCuts)])
}

// genEpoch makes epoch i's readings from the seed alone: 1024 readings,
// alternately temperature (A) and light (B), over 1024 desk ids with a
// flattened Zipf head, timestamped across virtual second i. Every call
// allocates fresh tuples, since windows keep what they are pushed.
func genEpoch(seed int64, i int) (a, b []data.Tuple) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	z := rand.NewZipf(rng, 1.1, 32, deskKeys-1)
	vals := make([]data.Value, 2*epochLen)
	a = make([]data.Tuple, 0, epochLen/2)
	b = make([]data.Tuple, 0, epochLen/2)
	base := vtime.Time(i) * vtime.Second
	step := vtime.Second / epochLen
	for j := 0; j < epochLen; j++ {
		v := vals[2*j : 2*j+2 : 2*j+2]
		v[0] = data.Int(int64(z.Uint64()))
		t := data.Tuple{Vals: v, TS: base + vtime.Time(j+1)*step}
		if j%2 == 0 {
			v[1] = data.Float(20 + 8*rng.Float64())
			a = append(a, t)
		} else {
			v[1] = data.Float(100 * rng.Float64())
			b = append(b, t)
		}
	}
	return a, b
}

func readingSchema(name string) *data.Schema {
	s := data.NewSchema(name, data.Col("desk", data.TInt), data.Col("value", data.TFloat))
	s.IsStream = true
	return s
}

// streamQuery is one standing query of a rig.
type streamQuery struct {
	name string
	sql  string
	opts plan.CompileOptions
	cut  float64 // dashboards: every row's value exceeds it
	dep  *plan.Deployment
}

// deployTimes sums the deploy layers' wall time over a rig's queries.
type deployTimes struct{ parse, optimize, compile, workers time.Duration }

// rig is one engine with its sources and deployed queries.
type rig struct {
	eng     *stream.Engine
	fed     *federation.Federator
	a, b    *stream.Input
	share   *plan.Sharing
	heavy   *streamQuery
	rollup  *streamQuery
	dash    []*streamQuery
	workers []*stream.ShardWorker
	times   deployTimes
}

// newRig registers the sources and deploys every query. The oracle rig
// deploys the same queries serial, private and unshared.
func newRig(r *run, remote, oracle bool) (*rig, error) {
	g := &rig{eng: stream.NewEngine("bench", vtime.NewScheduler())}
	cat := catalog.New()
	for _, name := range []string{"TempReadings", "LightReadings"} {
		s := readingSchema(name)
		if err := cat.AddSource(&catalog.Source{Name: name, Kind: catalog.KindStream, Schema: s, Rate: epochLen / 2}); err != nil {
			return nil, err
		}
		if _, err := g.eng.Register(name, s); err != nil {
			return nil, err
		}
	}
	g.a, _ = g.eng.Input("TempReadings")
	g.b, _ = g.eng.Input("LightReadings")
	g.fed = &federation.Federator{Cat: cat}

	par := plan.CompileOptions{Parallelism: runtime.NumCPU()}
	if remote {
		t := time.Now()
		id := r.tr.start("plan.NewWorker")
		var nodes []string
		for i := 0; i < 2; i++ {
			w, err := plan.NewWorker("127.0.0.1:0")
			if err != nil {
				r.tr.stop(id)
				g.close()
				return nil, fmt.Errorf("start shard worker: %w", err)
			}
			g.workers = append(g.workers, w)
			nodes = append(nodes, w.Addr())
		}
		r.tr.stop(id)
		g.times.workers = time.Since(t)
		par = plan.CompileOptions{Parallelism: 2, Nodes: nodes, Failover: true}
	}
	if oracle {
		par = plan.CompileOptions{}
	}
	g.heavy = &streamQuery{name: "heavy", sql: heavySQL, opts: par}
	g.rollup = &streamQuery{name: "rollup", sql: rollupSQL, opts: par}
	if !remote {
		var dopts plan.CompileOptions
		if !oracle {
			g.share = plan.NewSharing(g.eng)
			dopts.Sharing = g.share
		}
		for i := 0; i < dashboards; i++ {
			g.dash = append(g.dash, &streamQuery{name: fmt.Sprintf("dash%d", i), sql: dashSQL(i),
				opts: dopts, cut: dashCuts[i%len(dashCuts)]})
		}
	}
	for _, q := range g.queries() {
		err := g.deploy(r, q)
		r.op(err)
		if err != nil {
			g.close()
			return nil, err
		}
	}
	if !oracle && (g.heavy.dep.Shards != par.Parallelism || !g.rollup.dep.TwoPhase) {
		g.close()
		return nil, fmt.Errorf("heavy query deployed with %d shards (want %d), rollup two-phase %v",
			g.heavy.dep.Shards, par.Parallelism, g.rollup.dep.TwoPhase)
	}
	return g, nil
}

func (g *rig) queries() []*streamQuery {
	return append([]*streamQuery{g.heavy, g.rollup}, g.dash...)
}

// deploy parses, optimizes and compiles one query.
func (g *rig) deploy(r *run, q *streamQuery) error {
	t0 := time.Now()
	id := r.tr.start("sql.ParseSelect")
	stmt, err := sql.ParseSelect(q.sql)
	r.tr.stop(id)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("parse %s: %w", q.name, err)
	}
	id = r.tr.start("federation.Federator.Optimize")
	res, err := g.fed.Optimize(stmt)
	r.tr.stop(id)
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("optimize %s: %w", q.name, err)
	}
	id = r.tr.start("plan.CompileStreamOpts")
	dep, err := plan.CompileStreamOpts(res.Chosen.StreamPlan, g.eng, q.opts)
	r.tr.stop(id)
	t3 := time.Now()
	if err != nil {
		return fmt.Errorf("compile %s: %w", q.name, err)
	}
	q.dep = dep
	g.times.parse += t1.Sub(t0)
	g.times.optimize += t2.Sub(t1)
	g.times.compile += t3.Sub(t2)
	return nil
}

func (g *rig) close() {
	for _, q := range g.queries() {
		if q != nil && q.dep != nil {
			q.dep.Close()
		}
	}
	for _, w := range g.workers {
		w.Close()
	}
}

// push delivers epoch i and ticks the engine to its end.
func (g *rig) push(r *run, i int, a, b []data.Tuple) {
	id := r.tr.start("stream.Input.PushBatch")
	g.a.PushBatch(a)
	r.tr.stop(id)
	id = r.tr.start("stream.Input.PushBatch")
	g.b.PushBatch(b)
	r.tr.stop(id)
	id = r.tr.start("stream.Engine.Advance")
	g.eng.Advance(vtime.Time(i+1) * vtime.Second)
	r.tr.stop(id)
}

// displays lists the queries epoch i refreshes: the heavy query, the
// rollup and one dashboard in rotation.
func (g *rig) displays(i int) []*streamQuery {
	ds := []*streamQuery{g.heavy, g.rollup}
	if len(g.dash) > 0 {
		ds = append(ds, g.dash[i%len(g.dash)])
	}
	return ds
}

// refresh is one display refresh: Deployment.Snapshot split into its
// Flush and Result.Snapshot calls so each gets a span.
func refresh(r *run, dep *plan.Deployment) ([]data.Tuple, error) {
	id := r.tr.start("plan.Deployment.Flush")
	dep.Flush()
	r.tr.stop(id)
	id = r.tr.start("stream.Materialize.Snapshot")
	rows, err := dep.Result.Snapshot(dep.OrderBy, dep.Limit)
	r.tr.stop(id)
	return rows, err
}

// checkDisplay is the per-refresh sanity check of a query's rows.
func checkDisplay(q *streamQuery, rows []data.Tuple) error {
	switch {
	case q.name == "rollup":
		if len(rows) != 1 || rows[0].Vals[1].AsInt() <= 0 {
			return fmt.Errorf("rollup refresh returned %d rows", len(rows))
		}
	case q.name == "heavy":
		if len(rows) == 0 || len(rows) > deskKeys {
			return fmt.Errorf("heavy refresh returned %d rows", len(rows))
		}
	default:
		for _, t := range rows {
			if t.Vals[1].AsFloat() <= q.cut {
				return fmt.Errorf("%s shows %v, not above %v", q.name, t.Vals[1], q.cut)
			}
		}
	}
	return nil
}

// epochStats accumulates what a phase's epochs measured.
type epochStats struct {
	staleness []float64 // ms, one sample per display refresh
	lag       []float64 // ms, how late the open-loop generator ran
	rows      float64
	refreshes float64
}

// epoch generates, pushes and refreshes epoch i; due is when it was due
// (open loop) or started (closed loop).
func (g *rig) epoch(r *run, i int, due time.Time, st *epochStats) {
	r.tr.setEpoch(i)
	id := r.tr.start("bench.epoch")
	a, b := genEpoch(r.seed, i)
	g.push(r, i, a, b)
	r.op(nil)
	for _, q := range g.displays(i) {
		rows, err := refresh(r, q.dep)
		stale := time.Since(due)
		if err == nil {
			err = checkDisplay(q, rows)
		}
		if err == nil && stale > r.staleLimit {
			err = fmt.Errorf("epoch %d %s refresh %v late, limit %v", i, q.name, stale, r.staleLimit)
		}
		r.op(err)
		st.staleness = append(st.staleness, ms(stale))
		st.rows += float64(len(rows))
		st.refreshes++
	}
	r.tr.stop(id)
}

// warm fills the windows before timing: warmEpochs epochs, each pushed
// and refreshed.
func (g *rig) warm(r *run) {
	for i := 0; i < warmEpochs; i++ {
		g.epoch(r, i, time.Now(), &epochStats{})
	}
}

func (g *rig) flush() {
	for _, q := range g.queries() {
		q.dep.Flush()
	}
}

func (g *rig) versions() uint64 {
	var v uint64
	for _, q := range g.queries() {
		v += q.dep.Result.Version()
	}
	return v
}

// runStream is the ingest (remote=false) or remote workload.
func runStream(r *run, remote bool) error {
	rate := offeredRate[remote]
	r.meta["offered_rate_epochs_per_s"] = rate
	r.meta["offered_rate_tps"] = rate * epochLen

	// Set-up: the measured rig first. The other set-ups run between
	// closed-loop blocks (see blocks), so their median spans the run.
	var set setups
	t := time.Now()
	r.tr.record(true)
	g, err := newRig(r, remote, false)
	r.tr.record(false)
	if err != nil {
		return err
	}
	defer g.close()
	g.warm(r)
	set.add(time.Since(t), g.times)
	extraSetup := set.extra(r, func(quiet *run) (deployTimes, func(), error) {
		x, err := newRig(quiet, remote, false)
		if err != nil {
			return deployTimes{}, nil, err
		}
		x.warm(quiet)
		return x.times, x.close, nil
	})

	// The timed phase alternates open-loop and closed-loop segments, so
	// each loop samples the whole run of a host whose speed shifts from
	// one second to the next. Open loop: epochs are due at the offered
	// rate whatever the system does, and staleness counts from the due
	// time. Closed loop: the next epoch goes as soon as the previous push
	// and refresh return. The phase ends with Flush.
	next := warmEpochs
	var open, closed epochStats
	period := time.Duration(float64(time.Second) / rate)
	perEpoch := len(g.displays(0))
	dur := time.Duration(r.seconds * float64(time.Second))
	openEpochs := min((openSamples+perEpoch-1)/perEpoch, int(maxOpenShare*r.seconds*rate))
	closedDur := dur - time.Duration(openEpochs)*period
	var closedEpochs int
	var closedSoFar time.Duration
	u0 := takeUsage()
	v0 := g.versions()
	blk := newBlocks(r.tr, extraSetup)
	for seg := 0; seg < segments; seg++ {
		if err := blk.pause(); err != nil {
			return err
		}
		t0 := time.Now()
		n := (seg+1)*openEpochs/segments - seg*openEpochs/segments
		for k := 0; k < n; k++ {
			due := t0.Add(time.Duration(k) * period)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			open.lag = append(open.lag, ms(time.Since(due)))
			g.epoch(r, next, due, &open)
			next++
		}
		if err := blk.resume(); err != nil {
			return err
		}
		tc := time.Now()
		for closedSoFar+time.Since(tc) < time.Duration(seg+1)*closedDur/segments {
			g.epoch(r, next, time.Now(), &closed)
			next++
			closedEpochs++
			if err := blk.epochDone(); err != nil {
				return err
			}
		}
		closedSoFar += time.Since(tc)
	}
	if err := blk.finish(); err != nil {
		return err
	}
	g.flush()
	u1 := takeUsage()
	v1 := g.versions()
	timedEnd := next
	for !set.done() {
		if err := extraSetup(); err != nil {
			return err
		}
	}
	heap := liveHeapMB(func(int) {
		g.epoch(r, next, time.Now(), &epochStats{})
		next++
		g.flush()
	})

	// Correctness: replay every epoch into serial, private, unshared
	// deployments of every query and compare the results.
	oracleRate, ulps, err := checkAgainstOracle(r, g, remote, next)
	if err != nil {
		return err
	}

	timedEpochs := float64(timedEnd - warmEpochs)
	d := u0.to(u1)
	d.tuples = timedEpochs * epochLen
	d.vsecs = timedEpochs
	eps := blk.rate(r)
	cpu := blk.cpuPerEpoch()
	set.report(r)
	r.setE2E("throughput_tps", "tuples/s", eps*epochLen)
	r.setE2E("vsec_per_s", "vsec/s", eps)
	r.setE2E("staleness_p50_ms", "ms", quantile(open.staleness, 0.5))
	r.setE2E("staleness_p99_ms", "ms", quantile(open.staleness, 0.99))
	r.setE2E("cpu_us_per_tuple", "us", us(cpu)/epochLen)
	r.setE2E("cpu_ms_per_vsec", "ms", ms(cpu))
	r.setE2E("live_heap_mb", "MB", heap)

	r.meta["staleness_samples"] = len(open.staleness)
	r.meta["segments"] = segments
	r.meta["epochs_open"] = openEpochs
	r.meta["epochs_closed"] = closedEpochs
	r.meta["check_float_ulp_rows"] = ulps
	r.meta["heavy_shards"] = g.heavy.dep.Shards
	r.meta["heavy_two_phase"] = g.heavy.dep.TwoPhase

	if !r.traced {
		return nil
	}
	r.setLayer("staleness.samples", "count", float64(len(open.staleness)))
	r.setLayer("check.float_ulp_rows", "count", float64(ulps))
	r.setLayer("failed_frac", "ratio", float64(r.failed)/float64(r.attempted))
	push := r.tr.durations("stream.Input.PushBatch")
	r.setLayer("stream.push_us_p50", "us", quantile(push, 0.5))
	r.setLayer("stream.push_us_p99", "us", quantile(push, 0.99))
	r.setLayer("stream.advance_us_p50", "us", median(r.tr.durations("stream.Engine.Advance")))
	r.setSnapshotLayers()
	all := open.refreshes + closed.refreshes
	r.setLayer("stream.result_rows", "count", (open.rows+closed.rows)/all)
	r.setLayer("stream.result_versions_per_epoch", "count", float64(v1-v0)/timedEpochs)
	if g.share != nil {
		chains, attached := g.share.Stats()
		r.setLayer("plan.share_chains", "count", float64(chains))
		r.setLayer("plan.share_attached", "count", float64(attached))
		if chains > 0 {
			r.setLayer("plan.share_ratio", "ratio", float64(attached)/float64(chains))
		}
	}
	r.setLayer("plan.parallel_speedup", "ratio", eps/oracleRate)
	r.meta["oracle_epochs_per_s"] = oracleRate
	r.setLayer("gen.lag_ms_p99", "ms", quantile(open.lag, 0.99))
	r.setLayer("gen.build_us_p50", "us", median(r.tr.selfTimes("bench.epoch")))
	r.setLayer("trace.overhead_frac", "ratio", blk.overhead())
	r.setMemLayer(d)
	return r.finishTrace()
}

// setSnapshotLayers reports the display refresh layers from their spans.
func (r *run) setSnapshotLayers() {
	flush := r.tr.durations("plan.Deployment.Flush")
	snap := r.tr.durations("stream.Materialize.Snapshot")
	r.setLayer("plan.flush_us_p50", "us", quantile(flush, 0.5))
	r.setLayer("plan.flush_us_p99", "us", quantile(flush, 0.99))
	r.setLayer("stream.snapshot_us_p50", "us", quantile(snap, 0.5))
	r.setLayer("stream.snapshot_us_p99", "us", quantile(snap, 0.99))
}

// checkAgainstOracle replays epochs [0, end) into a serial rig and
// compares every query's full result with the measured rig's. It returns
// the number of float rows that differ within tolerance (two-phase
// aggregates may differ in the last ULP) and, in a traced run, the
// oracle's closed-loop rate in epochs per second over the timed and heap
// epochs with the same display refreshes, for plan.parallel_speedup.
func checkAgainstOracle(r *run, g *rig, remote bool, end int) (float64, int, error) {
	quiet := quietRun(r)
	o, err := newRig(quiet, remote, true)
	if err != nil {
		return 0, 0, fmt.Errorf("oracle: %w", err)
	}
	defer o.close()
	var st epochStats
	var tc time.Time
	for i := 0; i < end; i++ {
		if i == warmEpochs {
			tc = time.Now()
		}
		if i >= warmEpochs && r.traced {
			o.epoch(quiet, i, time.Now(), &st)
			continue
		}
		a, b := genEpoch(r.seed, i)
		o.push(quiet, i, a, b)
	}
	rate := float64(end-warmEpochs) / time.Since(tc).Seconds()
	if quiet.failed > 0 {
		r.mismatch("oracle refresh failed: %v", quiet.mismatches)
	}
	ulps := 0
	gq, oq := g.queries(), o.queries()
	for k := range gq {
		got, err := gq[k].dep.Result.Snapshot(nil, -1)
		if err != nil {
			return 0, 0, err
		}
		want, err := oq[k].dep.Result.Snapshot(nil, -1)
		if err != nil {
			return 0, 0, err
		}
		n, err := compareRows(got, want)
		ulps += n
		if n > 0 {
			r.meta["check_float_ulp_rows_"+gq[k].name] = n
		}
		if err != nil {
			r.mismatch("%s differs from the serial oracle: %v", gq[k].name, err)
			continue
		}
		r.op(nil)
	}
	return rate, ulps, nil
}

// compareRows checks two results for multiset equality, floats to a
// relative tolerance; it returns how many rows matched only within it.
func compareRows(got, want []data.Tuple) (int, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	sortRows(got)
	sortRows(want)
	ulps := 0
	for i := range got {
		g, w := got[i].Vals, want[i].Vals
		if len(g) != len(w) {
			return ulps, fmt.Errorf("row %d arity %d, oracle %d", i, len(g), len(w))
		}
		inexact := false
		for j := range g {
			if g[j].T == data.TFloat && w[j].T == data.TFloat {
				if g[j].F == w[j].F {
					continue
				}
				if math.Abs(g[j].F-w[j].F) > ulpTol*math.Max(math.Abs(g[j].F), math.Abs(w[j].F)) {
					return ulps, fmt.Errorf("row %v, oracle %v", got[i], want[i])
				}
				inexact = true
				continue
			}
			if !g[j].Equal(w[j]) {
				return ulps, fmt.Errorf("row %v, oracle %v", got[i], want[i])
			}
		}
		if inexact {
			ulps++
		}
	}
	return ulps, nil
}

func sortRows(ts []data.Tuple) {
	sort.Slice(ts, func(a, b int) bool {
		x, y := ts[a].Vals, ts[b].Vals
		for j := range x {
			if c, ok := x[j].Compare(y[j]); ok && c != 0 {
				return c < 0
			}
		}
		return false
	})
}
