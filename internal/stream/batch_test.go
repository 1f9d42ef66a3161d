package stream

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"weak"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// The batch-vs-tuple differential: the same delta stream is pushed tuple by
// tuple through one copy of a pipeline and in batch splits through another.
// After every batch the two copies must hold bit-identical state: the same
// Materialize multiset (floats compared by their bits) and the same
// canonical checkpoint of every stateful operator. Coalescing a batch's
// changes per group is therefore invisible at batch boundaries.

// Left rows are (k INT, g STRING, v FLOAT), right rows (k INT, w FLOAT).
func bdLeft() *data.Schema {
	return data.NewSchema("l", data.Col("k", data.TInt), data.Col("g", data.TString), data.Col("v", data.TFloat))
}

func bdRight() *data.Schema {
	return data.NewSchema("r", data.Col("k", data.TInt), data.Col("w", data.TFloat))
}

// bdSpecs cover every aggregate kind, NULL-skipping COUNT(v) included.
func bdSpecs(wcol string) []AggSpec {
	return []AggSpec{
		{Kind: AggCount, Alias: "n"},
		{Kind: AggCount, Arg: expr.C("v"), Alias: "nv"},
		{Kind: AggSum, Arg: expr.C("v"), Alias: "s"},
		{Kind: AggAvg, Arg: expr.C("v"), Alias: "a"},
		{Kind: AggMin, Arg: expr.C("v"), Alias: "lo"},
		{Kind: AggMax, Arg: expr.C(wcol), Alias: "hi"},
	}
}

// bdHaving flips as groups grow and shrink past two tuples.
func bdHaving() expr.Expr { return expr.Bin{Op: expr.OpGe, L: expr.C("n"), R: expr.L(int64(2))} }

// bdDelta is one input delta; side picks the join input (0 left, 1 right)
// and is 0 for the single-input pipelines.
type bdDelta struct {
	side int
	t    data.Tuple
}

// bdPipeline is one copy of a pipeline under test.
type bdPipeline struct {
	push  func(side int, t data.Tuple)    // per-tuple path
	batch func(side int, ts []data.Tuple) // batch path (one side)
	cks   []Checkpointer                  // stateful operators, Materialize last
}

type bdShape struct {
	name  string
	sides int
	build func() *bdPipeline
}

// bdMust unwraps a constructor result; the pipelines are static, so an
// error is a bug in the test itself.
func bdMust[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// bdShapes are the three pipelines: Join→Aggregate, Aggregate alone, and
// two PartialAggregate shards → Merge → FinalMerge.
func bdShapes() []bdShape {
	return []bdShape{
		{name: "join-agg", sides: 2, build: func() *bdPipeline {
			joined := bdLeft().Concat(bdRight())
			specs := bdSpecs("w")
			out := bdMust(AggOutSchema(joined, []string{"l.g"}, specs))
			mat := NewMaterialize(out)
			agg := bdMust(NewAggregate(mat, joined, []string{"l.g"}, specs, bdHaving()))
			j := bdMust(NewJoin(agg, bdLeft(), bdRight(), []string{"l.k"}, []string{"r.k"}, nil))
			heads := []Operator{j.Left(), j.Right()}
			return &bdPipeline{
				push:  func(side int, tu data.Tuple) { heads[side].Push(tu) },
				batch: func(side int, ts []data.Tuple) { PushBatch(heads[side], ts) },
				cks:   []Checkpointer{j, agg, mat},
			}
		}},
		{name: "agg", sides: 1, build: func() *bdPipeline {
			specs := bdSpecs("v")
			out := bdMust(AggOutSchema(bdLeft(), []string{"g"}, specs))
			mat := NewMaterialize(out)
			agg := bdMust(NewAggregate(mat, bdLeft(), []string{"g"}, specs, bdHaving()))
			return &bdPipeline{
				push:  func(_ int, tu data.Tuple) { agg.Push(tu) },
				batch: func(_ int, ts []data.Tuple) { agg.PushBatch(ts) },
				cks:   []Checkpointer{agg, mat},
			}
		}},
		{name: "two-phase", sides: 1, build: func() *bdPipeline {
			specs := bdSpecs("v")
			out := bdMust(AggOutSchema(bdLeft(), []string{"g"}, specs))
			mat := NewMaterialize(out)
			fm := bdMust(NewFinalMerge(mat, bdLeft(), []string{"g"}, specs, bdHaving()))
			merge := NewMerge(fm)
			parts := []*PartialAggregate{
				bdMust(NewPartialAggregate(merge, bdLeft(), []string{"g"}, specs)),
				bdMust(NewPartialAggregate(merge, bdLeft(), []string{"g"}, specs)),
			}
			// Shard by k, so one group's tuples spread over both partials.
			shard := func(tu data.Tuple) int { return int(tu.Vals[0].I & 1) }
			var sub [2][]data.Tuple
			return &bdPipeline{
				push: func(_ int, tu data.Tuple) { parts[shard(tu)].Push(tu) },
				batch: func(_ int, ts []data.Tuple) {
					sub[0], sub[1] = sub[0][:0], sub[1][:0]
					for _, tu := range ts {
						sub[shard(tu)] = append(sub[shard(tu)], tu)
					}
					for j, b := range sub {
						if len(b) > 0 {
							parts[j].PushBatch(b)
						}
					}
				},
				cks: []Checkpointer{parts[0], parts[1], fm, mat},
			}
		}},
	}
}

// Decimal values round on every addition, so one-phase sums prove the
// batch fold keeps the per-tuple addition order. FinalMerge re-associates
// float addition across shards (the documented last-ULP caveat of
// two-phase aggregation), so the two-phase pipeline draws dyadic values,
// whose sums are exact in any order.
var (
	bdDecimal = []float64{0.1, 0.7, 2.3, 19.9, 21.35, -4.45, 1e-3, 7}
	bdDyadic  = []float64{0.5, 1.25, -3, 20.125, 21.75, 4, -0.375, 16}
)

func bdValues(shape string) []float64 {
	if shape == "two-phase" {
		return bdDyadic
	}
	return bdDecimal
}

// bdGen produces a seeded random delta stream over a few groups and join
// keys: mostly inserts, deletions of live tuples (including runs that
// empty a group and re-insert into it within a few deltas), stray
// deletions of tuples never inserted, and NULL arguments.
func bdGen(rng *rand.Rand, n, sides int, vals []float64) []bdDelta {
	var live [2][]data.Tuple
	groups := []string{"a", "b", "c"}
	mk := func(side int, ts vtime.Time) data.Tuple {
		k := data.Int(int64(rng.Intn(4)))
		v := data.Float(vals[rng.Intn(len(vals))])
		if rng.Intn(6) == 0 {
			v = data.Null
		}
		if side == 1 {
			return data.NewTuple(ts, k, v)
		}
		return data.NewTuple(ts, k, data.Str(groups[rng.Intn(len(groups))]), v)
	}
	out := make([]bdDelta, 0, n)
	for i := 0; len(out) < n; i++ {
		ts := vtime.Time(i) * vtime.Second
		side := rng.Intn(sides)
		switch r := rng.Intn(10); {
		case r < 6 || len(live[side]) == 0:
			t := mk(side, ts)
			live[side] = append(live[side], t)
			out = append(out, bdDelta{side, t})
		case r < 8:
			j := rng.Intn(len(live[side]))
			t := live[side][j]
			live[side] = append(live[side][:j], live[side][j+1:]...)
			t.Op, t.TS = data.Delete, ts
			out = append(out, bdDelta{side, t})
		case r < 9 && side == 0:
			// Empty one group completely, then (usually) revive it.
			g := groups[rng.Intn(len(groups))]
			kept := live[0][:0]
			for _, t := range live[0] {
				if t.Vals[1].S == g {
					d := t
					d.Op, d.TS = data.Delete, ts
					out = append(out, bdDelta{0, d})
				} else {
					kept = append(kept, t)
				}
			}
			live[0] = kept
			if rng.Intn(4) > 0 {
				t := mk(0, ts)
				t.Vals[1] = data.Str(g)
				live[0] = append(live[0], t)
				out = append(out, bdDelta{0, t})
			}
		default:
			d := mk(side, ts) // stray: never inserted
			d.Op = data.Delete
			out = append(out, bdDelta{side, d})
		}
	}
	return out[:n]
}

// bdRun pushes deltas through fresh per-tuple and batch copies of shape.
// ends lists the exclusive end index of every batch (the last must be
// len(deltas)); a batch spanning both join sides splits into one-sided
// runs. State is compared after every run.
func bdRun(t testing.TB, shape bdShape, deltas []bdDelta, ends []int) {
	t.Helper()
	tp, bp := shape.build(), shape.build()
	var buf []data.Tuple
	start := 0
	for _, end := range ends {
		for start < end {
			side := deltas[start].side
			buf = buf[:0]
			for start < end && deltas[start].side == side {
				tp.push(side, deltas[start].t)
				buf = append(buf, deltas[start].t)
				start++
			}
			bp.batch(side, buf)
			if diff := bdDiff(tp, bp); diff != "" {
				t.Fatalf("%s: after delta %d: per-tuple and batch state differ: %s", shape.name, start, diff)
			}
		}
	}
}

// bdDiff names the first operator whose canonical state differs.
func bdDiff(a, b *bdPipeline) string {
	for i := range a.cks {
		x, y := canonState(a.cks[i].CheckpointState()), canonState(b.cks[i].CheckpointState())
		if x != y {
			return fmt.Sprintf("operator %d:\n tuple: %s\n batch: %s", i, x, y)
		}
	}
	return ""
}

// canonState renders an operator checkpoint canonically: map-ordered parts
// sorted, floats as their bit patterns, tuple timestamps dropped only
// where the contract leaves them free (emitted rows' TS is the last
// touching tuple's).
func canonState(s OpState) string {
	var parts []string
	switch {
	case s.Join != nil:
		for side, ts := range [][]data.Tuple{s.Join.L, s.Join.R} {
			for _, t := range ts {
				parts = append(parts, fmt.Sprintf("%d|%s|%d|%d", side, canonVals(t.Vals), t.TS, t.Op))
			}
		}
	case s.Groups != nil:
		for _, g := range s.Groups.Groups {
			var b strings.Builder
			fmt.Fprintf(&b, "%s cnt=%d out=%v:%s", canonVals(g.KeyVals), g.Count, g.HasOut, canonVals(g.LastOut))
			for _, a := range g.Aggs {
				fmt.Fprintf(&b, " [n=%d sum=%x", a.N, math.Float64bits(a.Sum))
				ks := make([]float64, 0, len(a.Vals))
				for k := range a.Vals {
					ks = append(ks, k)
				}
				sort.Float64s(ks)
				for _, k := range ks {
					fmt.Fprintf(&b, " %x:%d", math.Float64bits(k), a.Vals[k])
				}
				b.WriteString("]")
			}
			parts = append(parts, b.String())
		}
	case s.Rows != nil:
		for i, t := range s.Rows.Tuples {
			parts = append(parts, fmt.Sprintf("%s x%d", canonVals(t.Vals), s.Rows.Counts[i]))
		}
	}
	sort.Strings(parts)
	return fmt.Sprintf("kind %d: %s", s.Kind, strings.Join(parts, "; "))
}

func canonVals(vs []data.Value) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "(%d %d %x %q)", v.T, v.I, math.Float64bits(v.F), v.S)
	}
	return b.String()
}

// bdSplit draws random batch ends over n deltas, maxLen tuples at most.
func bdSplit(rng *rand.Rand, n, maxLen int) []int {
	var ends []int
	for i := 0; i < n; {
		i += 1 + rng.Intn(maxLen)
		if i > n {
			i = n
		}
		ends = append(ends, i)
	}
	return ends
}

func TestBatchTupleDifferential(t *testing.T) {
	for _, mask := range []uint64{^uint64(0), 0} {
		for _, shape := range bdShapes() {
			for seed := int64(1); seed <= 12; seed++ {
				t.Run(fmt.Sprintf("%s/mask=%x/seed=%d", shape.name, mask, seed), func(t *testing.T) {
					if mask == 0 {
						forceHashCollisions(t)
					}
					rng := rand.New(rand.NewSource(seed))
					deltas := bdGen(rng, 300, shape.sides, bdValues(shape.name))
					bdRun(t, shape, deltas, bdSplit(rng, len(deltas), 1+rng.Intn(40)))
				})
			}
		}
	}
}

// TestBatchTupleDifferentialScripted pins the corner cases the random
// stream only hits by chance, all inside one batch: a group that dies and
// revives, a deletion aimed at the emptied group, and a HAVING flip.
func TestBatchTupleDifferentialScripted(t *testing.T) {
	l := func(ts int64, op data.Op, k int64, g string, v data.Value) bdDelta {
		tu := data.NewTuple(vtime.Time(ts), data.Int(k), data.Str(g), v)
		tu.Op = op
		return bdDelta{0, tu}
	}
	f := data.Float
	deltas := []bdDelta{
		l(1, data.Insert, 0, "a", f(1.5)),
		l(1, data.Insert, 1, "a", f(2.25)),
		l(1, data.Insert, 1, "b", data.Null),
		// One batch: "a" shrinks below HAVING, dies, takes a stray delete
		// while empty, revives with a different value and grows back.
		l(2, data.Delete, 0, "a", f(1.5)),
		l(3, data.Delete, 1, "a", f(2.25)),
		l(4, data.Delete, 0, "a", f(-3)),
		l(5, data.Insert, 0, "a", f(4)),
		l(6, data.Insert, 1, "a", f(0.5)),
		l(7, data.Insert, 0, "b", f(16)),
		l(8, data.Delete, 1, "b", data.Null),
	}
	for _, shape := range bdShapes()[1:] {
		bdRun(t, shape, deltas, []int{3, len(deltas)})
	}
}

// TestAggregateBatchEmitsOncePerGroup: k tuples for one group in one batch
// retract and re-insert that group's row at most once, whatever k.
func TestAggregateBatchEmitsOncePerGroup(t *testing.T) {
	specs := []AggSpec{{Kind: AggAvg, Arg: expr.C("temp"), Alias: "m"}}
	out := bdMust(AggOutSchema(tempSchema(), []string{"room"}, specs))
	col := NewCollector(out)
	a := bdMust(NewAggregate(col, tempSchema(), []string{"room"}, specs, nil))
	a.PushBatch([]data.Tuple{temp(1, "L1", 20), temp(1, "L1", 21), temp(1, "L2", 5)})
	if got := col.Snapshot(); len(got) != 2 || got[0].Op != data.Insert || got[1].Op != data.Insert {
		t.Fatalf("first batch emitted %v, want one insert per group", got)
	}
	col.Reset()
	for _, k := range []int{1, 2, 17} {
		batch := make([]data.Tuple, k)
		for i := range batch {
			batch[i] = temp(int64(10+i), "L1", float64(30+i))
		}
		a.PushBatch(batch)
		got := col.Snapshot()
		if len(got) != 2 || got[0].Op != data.Delete || got[1].Op != data.Insert {
			t.Fatalf("k=%d: emitted %v, want one retract and one insert", k, got)
		}
		if got[1].TS != batch[k-1].TS {
			t.Fatalf("k=%d: row TS %v, want the last touching tuple's %v", k, got[1].TS, batch[k-1].TS)
		}
		col.Reset()
	}
	// A batch whose net effect leaves the row unchanged emits nothing.
	a.PushBatch([]data.Tuple{temp(40, "L2", 9), temp(40, "L2", 9).Negate()})
	if n := col.Len(); n != 0 {
		t.Fatalf("no-op batch emitted %v", col.Snapshot())
	}
}

// TestJoinBatchForwardsOneBatch: one input batch's matches reach the
// downstream as a single PushBatch, in per-tuple order.
func TestJoinBatchForwardsOneBatch(t *testing.T) {
	var calls [][]data.Tuple
	joined := bdLeft().Concat(bdRight())
	sink := NewBatchCallback(joined, func(ts []data.Tuple) {
		cp := make([]data.Tuple, len(ts))
		copy(cp, ts)
		calls = append(calls, cp)
	})
	j := bdMust(NewJoin(sink, bdLeft(), bdRight(), []string{"l.k"}, []string{"r.k"}, nil))
	j.Left().Push(data.NewTuple(1, data.Int(1), data.Str("a"), data.Float(1)))
	j.Left().Push(data.NewTuple(1, data.Int(1), data.Str("b"), data.Float(2)))
	calls = nil
	PushBatch(j.Right(), []data.Tuple{
		data.NewTuple(2, data.Int(1), data.Float(10)),
		data.NewTuple(3, data.Int(2), data.Float(20)), // no partner
		data.NewTuple(4, data.Int(1), data.Float(30)),
	})
	if len(calls) != 1 || len(calls[0]) != 4 {
		t.Fatalf("downstream saw %d calls %v, want one batch of 4", len(calls), calls)
	}
	if w := calls[0][3].Vals[4].F; w != 30 {
		t.Fatalf("matches out of order: %v", calls[0])
	}
}

// TestBatchBuffersReleaseTuples: an expired tuple's values become
// collectable once the window's PushBatch returns — no scratch buffer on
// its way (window, filter, join table and output, project, aggregate
// output) keeps it, or the deltas derived from it, reachable.
func TestBatchBuffersReleaseTuples(t *testing.T) {
	// tap records a weak pointer to every deletion passing into next.
	var watched []weak.Pointer[data.Value]
	tap := func(next Operator) Operator {
		return NewBatchCallback(next.Schema(), func(ts []data.Tuple) {
			for i := range ts {
				if ts[i].Op == data.Delete {
					watched = append(watched, weak.Make(&ts[i].Vals[0]))
				}
			}
			PushBatch(next, ts)
		})
	}
	joined := bdLeft().Concat(bdRight())
	items := []ProjectItem{{Expr: expr.C("g")}, {Expr: expr.C("w")}}
	projected := bdMust(OutSchema(joined, items))
	specs := []AggSpec{{Kind: AggCount, Alias: "n"}}
	mat := NewMaterialize(bdMust(AggOutSchema(projected, []string{"g"}, specs)))
	agg := bdMust(NewAggregate(tap(mat), projected, []string{"g"}, specs, nil))
	proj := bdMust(NewProject(tap(agg), joined, items))
	j := bdMust(NewJoin(tap(proj), bdLeft(), bdRight(), []string{"l.k"}, []string{"r.k"}, nil))
	j.Right().Push(data.NewTuple(0, data.Int(1), data.Float(10)))
	filt := NewFilter(j.Left(), expr.MustBind(expr.Bin{Op: expr.OpGe, L: expr.C("k"), R: expr.L(int64(0))}, bdLeft()))
	w := NewTimeWindow(filt, time.Second, 0)

	func() {
		vals := []data.Value{data.Int(1), data.Str("expiring"), data.Float(1)}
		w.PushBatch([]data.Tuple{{Vals: vals, TS: vtime.Time(time.Second)}})
		watched = append(watched, weak.Make(&vals[0]))
	}()
	if mat.Len() != 1 {
		t.Fatalf("result %d rows, want the one joined group", mat.Len())
	}
	// The next batch expires the first tuple: its deletion flows through
	// every scratch buffer on the way to the result.
	w.PushBatch([]data.Tuple{data.NewTuple(vtime.Time(5*time.Second), data.Int(2), data.Str("x"), data.Float(2))})
	if w.Len() != 1 || mat.Len() != 0 || len(watched) != 4 {
		t.Fatalf("window %d rows, result %d rows, %d watched: expiry did not flow", w.Len(), mat.Len(), len(watched))
	}
	runtime.GC()
	for i, wp := range watched {
		if wp.Value() != nil {
			t.Errorf("value %d still reachable after PushBatch returned", i)
		}
	}
	runtime.KeepAlive(w) // the pipeline itself stays live
}

// bdDecode turns fuzz bytes into a delta stream and its batch split, two
// bytes per delta. The first byte picks the side (join only), the join key,
// the group, the polarity and whether a batch ends after the delta; the
// second picks the value, one index past the table meaning NULL.
func bdDecode(b []byte, sides int, vals []float64) ([]bdDelta, []int) {
	const maxDeltas = 256
	var deltas []bdDelta
	var ends []int
	for i := 0; i+1 < len(b) && len(deltas) < maxDeltas; i += 2 {
		c, vi := b[i], int(b[i+1])%(len(vals)+1)
		v := data.Null
		if vi < len(vals) {
			v = data.Float(vals[vi])
		}
		side := int(c&1) % sides
		k := data.Int(int64(c >> 1 & 3))
		ts := vtime.Time(len(deltas))
		tu := data.NewTuple(ts, k, v)
		if side == 0 {
			tu = data.NewTuple(ts, k, data.Str(string(rune('a'+int(c>>3&3)%3))), v)
		}
		if c&0x20 != 0 {
			tu.Op = data.Delete
		}
		deltas = append(deltas, bdDelta{side, tu})
		if c&0x40 != 0 {
			ends = append(ends, len(deltas))
		}
	}
	if n := len(deltas); n > 0 && (len(ends) == 0 || ends[len(ends)-1] != n) {
		ends = append(ends, n)
	}
	return deltas, ends
}

// FuzzAggregateBatchEquivalence is the differential on decoded streams:
// every shape, per-tuple and batch, must agree after every batch.
func FuzzAggregateBatchEquivalence(f *testing.F) {
	f.Add([]byte{0x00, 1, 0x02, 2, 0x41, 3, 0x20, 1, 0x22, 2, 0x20, 9, 0x00, 4, 0x40, 0})
	f.Add([]byte{0x08, 5, 0x09, 6, 0x18, 7, 0x59, 8, 0x28, 5, 0x38, 7, 0x29, 6})
	rng := rand.New(rand.NewSource(3))
	seed := make([]byte, 128)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, shape := range bdShapes() {
			deltas, ends := bdDecode(b, shape.sides, bdValues(shape.name))
			if len(deltas) > 0 {
				bdRun(t, shape, deltas, ends)
			}
		}
	})
}
