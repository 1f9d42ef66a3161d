package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"aspen/internal/building"
	"aspen/internal/core"
	"aspen/internal/sensornet"
	"aspen/internal/smartcis"
	"aspen/internal/sql"
)

// This file is the building workload: the full SmartCIS app over a
// 16-lab building (about 300 motes) with the standard displays, driven
// closed loop one sensing epoch at a time while seeded physical events
// seat and unseat people, heat and cool rooms, walk badge visitors around
// and ask for guidance.
//
// The seed orders the events, not their number: every run keeps the same
// number of desks seated and rooms hot, heats every lab in turn and visits
// every hall point, in an order drawn from the seed. How many desks are
// seated and which rooms run hot set each epoch's sensing cost: drawn
// independently per epoch, that cost would differ from seed to seed, and a
// seated count that changed over the run would make it swing with the
// count (by 1.7x between none and 64 seated), so the closed-loop figures
// would depend on where the run's blocks fell.

const (
	alarmAt     = 55.0 // alarm threshold; machine heat alone stays below it
	hotTemp     = 60.0
	roomTemp    = 21.0
	settle      = 3  // quiet epochs before the final display check
	radioEpochs = 64 // timed epochs the radio figures cover
	maxHot      = 2  // hot rooms at a time; the oldest cools first
	seatPool    = 64 // lab desks the schedule seats; the rest stay free for guidance
	seatedDesks = 32 // desks of the pool seated at any time
)

var buildingConfig = building.GenConfig{Labs: 16, DesksPerLab: 8, HallSpacing: 100, Offices: 4}

type deskID struct {
	room string
	desk int
}

// bldg is one SmartCIS deployment plus the state the workload's own
// schedule left it in.
type bldg struct {
	app      *smartcis.App
	queries  []*core.Query // occupancy, alarms, resources by user
	visitors []string
	channels int // temperature and light sensors in the field
	times    deployTimes

	// The event schedule: lab desks, labs and hall points (those with an
	// RFID reader) in seed order.
	desks []deskID
	labs  []string
	halls []string

	seated map[deskID]bool
	hot    []string // oldest first
}

// newBuilding builds, starts and deploys the app.
func newBuilding(r *run) (*bldg, error) {
	app, err := smartcis.New(smartcis.Options{Building: buildingConfig, Seed: r.seed, SkipPDUServers: true})
	if err != nil {
		return nil, err
	}
	b := &bldg{app: app, seated: map[deskID]bool{}}
	t := time.Now()
	id := r.tr.start("smartcis.App.Start")
	app.Start()
	r.tr.stop(id)
	b.times.workers = time.Since(t)

	deploys := []func() (*core.Query, error){
		app.OccupancyQuery,
		func() (*core.Query, error) { return app.AlarmQuery(alarmAt) },
		app.ResourcesByUser,
	}
	for _, deploy := range deploys {
		if err := b.deploy(r, deploy); err != nil {
			r.op(err)
			app.Close()
			return nil, err
		}
		r.op(nil)
	}

	for _, lab := range app.Building.Labs() {
		b.labs = append(b.labs, lab.Name)
		for _, d := range lab.Desks {
			b.desks = append(b.desks, deskID{lab.Name, d.Num})
		}
	}
	for _, p := range app.Building.Points() {
		if p.Name == "lobby" || strings.HasPrefix(p.Name, "hall") {
			b.halls = append(b.halls, p.Name)
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	rng.Shuffle(len(b.desks), func(i, j int) { b.desks[i], b.desks[j] = b.desks[j], b.desks[i] })
	rng.Shuffle(len(b.labs), func(i, j int) { b.labs[i], b.labs[j] = b.labs[j], b.labs[i] })
	rng.Shuffle(len(b.halls), func(i, j int) { b.halls[i], b.halls[j] = b.halls[j], b.halls[i] })
	// The state events expects before the first timed epoch: the window
	// of the pool that epoch warmEpochs rotates, and the first labs hot.
	for i := 0; i < seatedDesks; i++ {
		b.seat(b.desks[(warmEpochs+i)%seatPool], true)
	}
	for _, room := range b.labs[:maxHot] {
		b.hot = append(b.hot, room)
		app.SetRoomTemp(room, hotTemp)
	}
	for _, n := range app.Net.Nodes() {
		for _, k := range n.Sensors {
			if k == sensornet.SensorTemperature || k == sensornet.SensorLight {
				b.channels++
			}
		}
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("visitor%d", i)
		app.VisitorArrives(name)
		b.visitors = append(b.visitors, name)
	}
	return b, nil
}

// warm fills the windows before timing: warmEpochs epochs without events,
// each refreshed.
func (b *bldg) warm(r *run) {
	for e := 0; e < warmEpochs; e++ {
		b.epoch(r, e, false, &epochStats{})
	}
}

// deploy runs one standard query through core, then times parsing and
// federated optimisation of its text on their own: the compile share is
// the deploy's wall time less those two.
func (b *bldg) deploy(r *run, deploy func() (*core.Query, error)) error {
	t0 := time.Now()
	id := r.tr.start("core.Runtime.Run")
	q, err := deploy()
	r.tr.stop(id)
	total := time.Since(t0)
	if err != nil {
		return err
	}
	b.queries = append(b.queries, q)
	t1 := time.Now()
	stmt, err := sql.ParseSelect(q.SQL)
	t2 := time.Now()
	if err != nil {
		return err
	}
	if _, err := b.app.RT.Federator().Optimize(stmt); err != nil {
		return err
	}
	parse, optimize := t2.Sub(t1), time.Since(t2)
	b.times.parse += parse
	b.times.optimize += optimize
	b.times.compile += max(total-parse-optimize, 0)
	return nil
}

// events applies epoch e's physical events. Seated desks are a window of
// seatedDesks over the pool that moves one desk per epoch: desk e leaves
// and desk e+seatedDesks sits down, so the seated count never changes.
// Every tenth epoch the oldest hot lab cools and the next lab heats up.
// Every fifth epoch a visitor walks to the next hall point.
func (b *bldg) events(r *run, e int) {
	b.seat(b.desks[e%seatPool], false)
	b.seat(b.desks[(e+seatedDesks)%seatPool], true)
	if e%10 == 0 {
		b.app.SetRoomTemp(b.hot[0], roomTemp)
		room := b.labs[(e/10+maxHot-1)%len(b.labs)]
		b.hot = append(b.hot[1:], room)
		b.app.SetRoomTemp(room, hotTemp)
	}
	if e%5 == 0 {
		v := b.visitors[(e/5)%len(b.visitors)]
		r.op(b.app.MoveVisitorTo(v, b.halls[(e/5)%len(b.halls)]))
	}
}

// epoch runs one sensing epoch: events, RunFor(1s), a refresh of every
// display and, every tenth epoch, a guidance request. Staleness counts
// from the epoch's start.
func (b *bldg) epoch(r *run, e int, withEvents bool, st *epochStats) {
	r.tr.setEpoch(e)
	start := time.Now()
	id := r.tr.start("bench.epoch")
	if withEvents {
		b.events(r, e)
	}
	rid := r.tr.start("vtime.Scheduler.RunFor")
	b.app.Sched.RunFor(time.Second)
	r.tr.stop(rid)
	r.op(nil)
	if st != nil {
		for _, q := range b.queries {
			rows, err := refresh(r, q.Deployment)
			stale := time.Since(start)
			if err == nil && stale > r.staleLimit {
				err = fmt.Errorf("epoch %d refresh %v late, limit %v", e, stale, r.staleLimit)
			}
			r.op(err)
			st.staleness = append(st.staleness, ms(stale))
			st.rows += float64(len(rows))
			st.refreshes++
		}
	}
	if withEvents && e%10 == 0 {
		gid := r.tr.start("smartcis.App.Guide")
		_, err := b.app.Guide(b.visitors[(e/10)%len(b.visitors)], "fedora linux")
		r.tr.stop(gid)
		r.op(err)
	}
	r.tr.stop(id)
}

func (b *bldg) seat(d deskID, on bool) {
	if on {
		b.seated[d] = true
	} else {
		delete(b.seated, d)
	}
	b.app.SetDeskOccupied(d.room, d.desk, on)
}

func (b *bldg) versions() uint64 {
	var v uint64
	for _, q := range b.queries {
		v += q.Deployment.Result.Version()
	}
	return v
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func runBuilding(r *run) error {
	// Set-up: the measured app first. The other set-ups run between
	// closed-loop blocks (see blocks), so their median spans the run.
	var set setups
	t := time.Now()
	r.tr.record(true)
	b, err := newBuilding(r)
	r.tr.record(false)
	if err != nil {
		return err
	}
	defer b.app.Close()
	b.warm(r)
	set.add(time.Since(t), b.times)
	extraSetup := set.extra(r, func(quiet *run) (deployTimes, func(), error) {
		x, err := newBuilding(quiet)
		if err != nil {
			return deployTimes{}, nil, err
		}
		x.warm(quiet)
		return x.times, x.app.Close, nil
	})

	// Closed loop: the next epoch starts as soon as the previous one's
	// refreshes return; at least radioEpochs epochs run.
	var st epochStats
	blk := newBlocks(r.tr, extraSetup)
	first := warmEpochs
	e := first
	var radio sensornet.Metrics
	radio0 := b.app.Net.Metrics()
	u0 := takeUsage()
	v0 := b.versions()
	t0 := time.Now()
	dur := time.Duration(r.seconds * float64(time.Second))
	for e-first < radioEpochs || time.Since(t0) < dur {
		b.epoch(r, e, true, &st)
		e++
		if e-first == radioEpochs {
			radio = radioDelta(radio0, b.app.Net.Metrics())
		}
		if err := blk.epochDone(); err != nil {
			return err
		}
	}
	if err := blk.finish(); err != nil {
		return err
	}
	u1 := takeUsage()
	v1 := b.versions()
	epochs := e - first
	for !set.done() {
		if err := extraSetup(); err != nil {
			return err
		}
	}
	heap := liveHeapMB(func(int) {
		b.epoch(r, e, true, nil)
		e++
	})

	// Correctness: after quiet epochs the displays show exactly what the
	// schedule left, and a second deployment replaying the first
	// radioEpochs epochs sends exactly the same radio traffic.
	for i := 0; i < settle; i++ {
		b.epoch(r, e+i, false, nil)
	}
	b.checkDisplays(r)
	if err := checkRadio(r, first, radio); err != nil {
		return err
	}

	d := u0.to(u1)
	d.vsecs = float64(epochs)
	d.tuples = float64(epochs * b.channels)
	vps := blk.rate(r)
	cpu := blk.cpuPerEpoch()
	set.report(r)
	r.setE2E("throughput_tps", "tuples/s", vps*float64(b.channels))
	r.setE2E("vsec_per_s", "vsec/s", vps)
	r.setE2E("staleness_p50_ms", "ms", quantile(st.staleness, 0.5))
	r.setE2E("staleness_p99_ms", "ms", quantile(st.staleness, 0.99))
	r.setE2E("cpu_us_per_tuple", "us", us(cpu)/float64(b.channels))
	r.setE2E("cpu_ms_per_vsec", "ms", ms(cpu))
	r.setE2E("live_heap_mb", "MB", heap)

	r.meta["staleness_samples"] = len(st.staleness)
	r.meta["epochs"] = epochs
	r.meta["motes"] = len(b.app.Net.Nodes())
	r.meta["sensor_channels"] = b.channels
	r.meta["radio_msgs_per_vsec"] = float64(radio.Sent) / radioEpochs

	if !r.traced {
		return nil
	}
	r.setLayer("staleness.samples", "count", float64(len(st.staleness)))
	r.setLayer("failed_frac", "ratio", float64(r.failed)/float64(r.attempted))
	r.setSnapshotLayers()
	r.setLayer("stream.result_rows", "count", st.rows/st.refreshes)
	r.setLayer("stream.result_versions_per_epoch", "count", float64(v1-v0)/float64(epochs))
	runFor := r.tr.durations("vtime.Scheduler.RunFor")
	r.setLayer("core.epoch_ms_p50", "ms", quantile(runFor, 0.5)/1e3)
	r.setLayer("core.epoch_ms_p99", "ms", quantile(runFor, 0.99)/1e3)
	r.setLayer("sensornet.msgs_per_vsec", "msgs", float64(radio.Sent)/radioEpochs)
	r.setLayer("sensornet.dropped_per_vsec", "msgs", float64(radio.Dropped)/radioEpochs)
	r.setLayer("sensornet.energy_mj_per_vsec", "mJ", radio.EnergyMJ/radioEpochs)
	r.setLayer("routing.guide_us_p50", "us", median(r.tr.durations("smartcis.App.Guide")))
	r.setLayer("gen.build_us_p50", "us", median(r.tr.selfTimes("bench.epoch")))
	r.setLayer("trace.overhead_frac", "ratio", blk.overhead())
	r.setMemLayer(d)
	return r.finishTrace()
}

func radioDelta(a, b sensornet.Metrics) sensornet.Metrics {
	return sensornet.Metrics{Sent: b.Sent - a.Sent, Received: b.Received - a.Received,
		Dropped: b.Dropped - a.Dropped, EnergyMJ: b.EnergyMJ - a.EnergyMJ}
}

// checkDisplays compares the occupancy and alarm displays with the
// schedule: exactly the seated desks, exactly the hot rooms.
func (b *bldg) checkDisplays(r *run) {
	occ, err := b.queries[0].Snapshot()
	if err != nil {
		r.mismatch("occupancy snapshot: %v", err)
		return
	}
	shown := map[deskID]bool{}
	for _, t := range occ {
		shown[deskID{t.Vals[0].AsString(), int(t.Vals[1].AsInt())}] = true
	}
	if !sameSet(shown, b.seated) {
		r.mismatch("occupancy display shows %d desks, the schedule seated %d", len(shown), len(b.seated))
	} else {
		r.op(nil)
	}
	alarms, err := b.queries[1].Snapshot()
	if err != nil {
		r.mismatch("alarm snapshot: %v", err)
		return
	}
	rooms := map[string]bool{}
	for _, t := range alarms {
		rooms[t.Vals[0].AsString()] = true
	}
	hot := map[string]bool{}
	for _, room := range b.hot {
		hot[room] = true
	}
	if !sameSet(rooms, hot) {
		r.mismatch("alarm display lists %v, the schedule left %v hot", sortedKeys(rooms), b.hot)
	} else {
		r.op(nil)
	}
}

func sameSet[K comparable](a, b map[K]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// checkRadio replays the first radioEpochs timed epochs on a fresh
// deployment of the same seed; its radio traffic must match exactly.
func checkRadio(r *run, first int, want sensornet.Metrics) error {
	quiet := quietRun(r)
	twin, err := newBuilding(quiet)
	if err != nil {
		return fmt.Errorf("radio twin: %w", err)
	}
	defer twin.app.Close()
	twin.warm(quiet)
	m0 := twin.app.Net.Metrics()
	for e := first; e < first+radioEpochs; e++ {
		twin.epoch(quiet, e, true, nil)
	}
	got := radioDelta(m0, twin.app.Net.Metrics())
	if got != want {
		r.mismatch("radio traffic not repeatable: %+v, replay %+v", want, got)
	} else {
		r.op(nil)
	}
	return nil
}
