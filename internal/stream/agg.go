package stream

import (
	"fmt"
	"strings"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// AggKind enumerates the aggregate functions of the stream engine.
type AggKind uint8

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// ParseAggKind maps a function name from the parser to an AggKind.
func ParseAggKind(name string) (AggKind, bool) {
	switch strings.ToLower(name) {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "avg":
		return AggAvg, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	}
	return 0, false
}

// String names the kind.
func (k AggKind) String() string {
	return [...]string{"count", "sum", "avg", "min", "max"}[k]
}

// AggSpec is one aggregate column: FUNC(Arg) AS Alias. A nil Arg means
// COUNT(*).
type AggSpec struct {
	Kind  AggKind
	Arg   expr.Expr
	Alias string
}

// Aggregate maintains grouped aggregates incrementally over a delta
// stream. When an input batch changes a group's result, it emits a
// retraction of the group's previous output row followed by an insertion of
// the new one — once per changed group per batch, so downstream state
// (materialized displays, HAVING filters) tracks the aggregate exactly
// without seeing the batch's intermediate values. A per-tuple Push is a
// one-element batch.
// Group state is keyed by 64-bit hashes of the canonical grouping-key
// encoding; a bucket holds every group sharing the hash, and lookups verify
// candidates against the stored key values, so no key string is
// materialized per push.
type Aggregate struct {
	next   Operator
	in     *data.Schema
	out    *data.Schema
	specs  []AggSpec
	args   []*expr.Compiled // nil entry for COUNT(*)
	table  groupTable
	having *expr.Compiled
}

// groupTable is the grouped-state core shared by the one-phase Aggregate
// and the two-phase PartialAggregate / FinalMerge operators: hash-bucketed
// group lookup keyed on the canonical encoding of the grouping columns
// (data.Hasher), with collision buckets verified value-by-value through
// EqualOn, so no key string is materialized per push.
type groupTable struct {
	keyIdx   []int
	kvIdx    []int  // identity indexes into groupState.keyVals
	multiset []bool // per aggregate: keeps a value multiset (MIN/MAX)
	groups   map[uint64][]*groupState
	n        int // live group count
	hasher   data.Hasher

	dirty []*groupState // groups the batch in progress touched, in first-touched order
	out   []data.Tuple  // scratch for the batch's emitted rows
}

// groupFolder is the per-operator half of the batch path: fold applies one
// input delta to its group's running state, row builds the group's current
// output row (nil when the group shows none).
type groupFolder interface {
	fold(g *groupState, t data.Tuple)
	row(g *groupState) []data.Value
}

// newGroupTable resolves the grouping columns against in. groupBy must
// already be validated (AggOutSchema / AggPartialSchema do).
func newGroupTable(in *data.Schema, groupBy []string, specs []AggSpec) groupTable {
	gt := groupTable{multiset: multisetAggs(specs), groups: map[uint64][]*groupState{}}
	// keyIdx must stay non-nil: Tuple.HashOn(h, nil) means "all columns",
	// but an empty GROUP BY means one global group (empty key).
	gt.keyIdx = make([]int, 0, len(groupBy))
	gt.kvIdx = make([]int, 0, len(groupBy))
	for _, g := range groupBy {
		i, _ := in.ColIndex(g)
		gt.keyIdx = append(gt.keyIdx, i)
		gt.kvIdx = append(gt.kvIdx, len(gt.kvIdx))
	}
	return gt
}

// multisetAggs marks the aggregates that need a value multiset: only MIN
// and MAX must recover the next extremum after a deletion.
func multisetAggs(specs []AggSpec) []bool {
	ms := make([]bool, len(specs))
	for i, s := range specs {
		ms[i] = s.Kind == AggMin || s.Kind == AggMax
	}
	return ms
}

// lookup finds the tuple's group, creating it for insertions. The nil
// result means a deletion addressed an unknown group (ignored by every
// caller, matching the delta-stream convention).
func (gt *groupTable) lookup(t data.Tuple) *groupState {
	key := gt.hasher.HashOn(t, gt.keyIdx) & testHashMask
	for _, cand := range gt.groups[key] {
		// Verify the hash-bucket candidate's stored key values against the
		// tuple's grouping columns under key-equality semantics.
		if (data.Tuple{Vals: cand.keyVals}).EqualOn(gt.kvIdx, t, gt.keyIdx) {
			return cand
		}
	}
	if t.Op == data.Delete {
		return nil
	}
	g := &groupState{key: key, aggs: make([]aggState, len(gt.multiset))}
	for i, ms := range gt.multiset {
		if ms {
			g.aggs[i].vals = map[float64]int64{}
		}
	}
	g.keyVals = make([]data.Value, len(gt.keyIdx))
	for i, idx := range gt.keyIdx {
		g.keyVals[i] = t.Vals[idx]
	}
	gt.groups[key] = append(gt.groups[key], g)
	gt.n++
	return g
}

// remove drops a dead group from its bucket.
func (gt *groupTable) remove(g *groupState) {
	bucket := gt.groups[g.key]
	for i, cand := range bucket {
		if cand == g {
			copy(bucket[i:], bucket[i+1:])
			bucket[len(bucket)-1] = nil // drop the reference for GC
			if len(bucket) == 1 {
				delete(gt.groups, g.key)
			} else {
				gt.groups[g.key] = bucket[:len(bucket)-1]
			}
			break
		}
	}
	gt.n--
}

// push is the per-tuple Push of every group-table operator: the batch
// path on a one-element batch.
func (gt *groupTable) push(op groupFolder, next Operator, t data.Tuple) {
	one := [1]data.Tuple{t}
	gt.pushBatch(op, next, one[:])
}

// pushBatch folds the whole batch into group state in input order — so
// float sums are bit-identical to folding tuple by tuple — and then emits
// each touched group's row change once, in first-touched order, stamped
// with the TS of the last tuple that touched the group. The emitted rows
// leave as one downstream batch.
//
// The result equals the per-tuple path's net effect exactly. A group
// whose count reaches zero mid-batch is reset to a fresh group's state, as
// if it had been removed and re-created; a deletion addressed to such an
// emptied group is ignored, as deletions for unknown groups are.
func (gt *groupTable) pushBatch(op groupFolder, next Operator, ts []data.Tuple) {
	for _, t := range ts {
		g := gt.lookup(t)
		if g == nil || (g.count == 0 && t.Op == data.Delete) {
			continue // deletion for an unknown or emptied group: ignore
		}
		if !g.dirty {
			g.dirty = true
			gt.dirty = append(gt.dirty, g)
		}
		g.ts = t.TS
		op.fold(g, t)
		if g.count <= 0 {
			g.reset()
		}
	}
	out := gt.out[:0]
	for _, g := range gt.dirty {
		g.dirty = false
		out = gt.emitRow(out, g, op.row(g))
	}
	clear(gt.dirty)
	gt.dirty = gt.dirty[:0]
	if len(out) > 0 {
		PushBatch(next, out)
	}
	clear(out) // the downstream owns the rows now
	gt.out = out[:0]
}

// emitRow appends the retraction of g's previously emitted row and the
// insertion of newOut (nil means no visible row, e.g. failed HAVING or
// dead group) to out, suppressing no-op transitions, then removes the
// group once its count reaches zero.
func (gt *groupTable) emitRow(out []data.Tuple, g *groupState, newOut []data.Value) []data.Tuple {
	if g.lastOut != nil {
		if sameRow(newOut, g.lastOut) {
			return out // no visible change (newOut != nil: the group lives)
		}
		out = append(out, data.Tuple{Vals: g.lastOut, TS: g.ts, Op: data.Delete})
		g.lastOut = nil
	}
	if newOut != nil {
		out = append(out, data.Tuple{Vals: newOut, TS: g.ts, Op: data.Insert})
		g.lastOut = newOut
	}
	if g.count <= 0 {
		gt.remove(g)
	}
	return out
}

// sameRow reports whether a and b show the same values (NULLs equal).
func sameRow(a, b []data.Value) bool {
	if a == nil || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !(a[i].IsNull() && b[i].IsNull()) && !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

type groupState struct {
	keyVals []data.Value
	count   int64 // tuples in group
	aggs    []aggState
	lastOut []data.Value // previously emitted row (nil if none)

	key   uint64     // hash-table key
	dirty bool       // touched by the batch in progress
	ts    vtime.Time // TS of the last tuple that touched the group
}

// reset returns an emptied group to a fresh group's state.
func (g *groupState) reset() {
	g.count = 0
	for i := range g.aggs {
		st := &g.aggs[i]
		st.n, st.sum = 0, 0
		clear(st.vals)
	}
}

type aggState struct {
	n   int64 // non-null inputs
	sum float64
	// multiset of values for MIN/MAX deletion support (nil for the other
	// kinds, which need only n and sum)
	vals map[float64]int64
}

// AggOutSchema computes the output schema of a grouped aggregation:
// grouping columns followed by one column per aggregate (COUNT is INT,
// the numeric aggregates are FLOAT).
func AggOutSchema(in *data.Schema, groupBy []string, specs []AggSpec) (*data.Schema, error) {
	out := &data.Schema{Name: in.Name, IsStream: in.IsStream}
	for _, g := range groupBy {
		i, err := in.ColIndex(g)
		if err != nil {
			return nil, err
		}
		out.Cols = append(out.Cols, in.Cols[i])
	}
	for i, s := range specs {
		typ := data.TInt
		if s.Arg != nil {
			c, err := expr.Bind(s.Arg, in)
			if err != nil {
				return nil, err
			}
			if !c.Type.Numeric() && s.Kind != AggCount {
				return nil, fmt.Errorf("stream: %s over non-numeric %s", s.Kind, c.Type)
			}
			if s.Kind != AggCount {
				typ = data.TFloat // numeric aggregates are computed in float64
			}
		} else if s.Kind != AggCount {
			return nil, fmt.Errorf("stream: %s requires an argument", s.Kind)
		}
		name := s.Alias
		if name == "" {
			name = fmt.Sprintf("%s%d", s.Kind, i+1)
		}
		out.Cols = append(out.Cols, data.Column{Name: name, Type: typ})
	}
	return out, nil
}

// NewAggregate builds the operator. groupBy names grouping columns in the
// input schema; having (optional) is evaluated over the output schema.
func NewAggregate(next Operator, in *data.Schema, groupBy []string, specs []AggSpec, having expr.Expr) (*Aggregate, error) {
	out, err := AggOutSchema(in, groupBy, specs)
	if err != nil {
		return nil, err
	}
	a := &Aggregate{next: next, in: in, out: out, specs: specs,
		table: newGroupTable(in, groupBy, specs)}
	if a.args, err = bindAggArgs(in, specs); err != nil {
		return nil, err
	}
	if err := checkAggDownstream(next, out, "aggregate"); err != nil {
		return nil, err
	}
	if having != nil {
		c, err := expr.Bind(having, out)
		if err != nil {
			return nil, err
		}
		a.having = c
	}
	return a, nil
}

// Schema implements Operator.
func (a *Aggregate) Schema() *data.Schema { return a.in }

// OutSchema returns the grouped output schema.
func (a *Aggregate) OutSchema() *data.Schema { return a.out }

// Push implements Operator: a one-element batch.
func (a *Aggregate) Push(t data.Tuple) { a.table.push(a, a.next, t) }

// PushBatch implements BatchOperator: each group the batch changes emits
// one retraction and one insertion.
func (a *Aggregate) PushBatch(ts []data.Tuple) { a.table.pushBatch(a, a.next, ts) }

func (a *Aggregate) fold(g *groupState, t data.Tuple) { accumulate(g, t, a.args) }

func (a *Aggregate) row(g *groupState) []data.Value { return finalRow(g, a.specs, a.having) }

// bindAggArgs compiles each spec's argument against in (nil entries mark
// COUNT(*)). Shared by the one- and two-phase aggregate constructors.
func bindAggArgs(in *data.Schema, specs []AggSpec) ([]*expr.Compiled, error) {
	args := make([]*expr.Compiled, len(specs))
	for i, s := range specs {
		if s.Arg == nil {
			continue
		}
		c, err := expr.Bind(s.Arg, in)
		if err != nil {
			return nil, err
		}
		args[i] = c
	}
	return args, nil
}

// checkAggDownstream validates that next accepts out-shaped tuples.
func checkAggDownstream(next Operator, out *data.Schema, what string) error {
	if next.Schema().Arity() != out.Arity() {
		return fmt.Errorf("stream: %s output arity %d does not match downstream %s",
			what, out.Arity(), next.Schema())
	}
	return nil
}

// accumulate folds one input tuple into the group's running state — the
// group count and every aggregate's (n, sum, MIN/MAX value multiset) —
// with the tuple's polarity deciding the delta sign. Aggregate and
// PartialAggregate accumulate identically; they differ only in what they
// emit.
func accumulate(g *groupState, t data.Tuple, args []*expr.Compiled) {
	delta := int64(1)
	if t.Op == data.Delete {
		delta = -1
	}
	g.count += delta
	for i := range args {
		st := &g.aggs[i]
		if args[i] == nil { // COUNT(*)
			st.n += delta
			continue
		}
		v := args[i].Eval(t)
		if v.IsNull() {
			continue
		}
		f := v.AsFloat()
		st.n += delta
		st.sum += float64(delta) * f
		if st.vals != nil {
			addMultiset(st.vals, f, delta)
		}
	}
}

// finalRow builds a group's visible output row — grouping columns followed
// by finalized aggregates — or nil for a dead group / failed HAVING.
// Shared by Aggregate and FinalMerge, whose output contracts are identical.
func finalRow(g *groupState, specs []AggSpec, having *expr.Compiled) []data.Value {
	if g.count <= 0 {
		return nil
	}
	out := make([]data.Value, 0, len(g.keyVals)+len(specs))
	out = append(out, g.keyVals...)
	for i, s := range specs {
		out = append(out, g.aggs[i].result(s.Kind))
	}
	if having != nil && !having.EvalVals(out).AsBool() {
		return nil
	}
	return out
}

// addMultiset adds delta occurrences of f, dropping values whose count
// falls to zero.
func addMultiset(vals map[float64]int64, f float64, delta int64) {
	if c := vals[f] + delta; c > 0 {
		vals[f] = c
	} else {
		delete(vals, f)
	}
}

// result finalizes one aggregate from its state.
func (st *aggState) result(k AggKind) data.Value {
	switch k {
	case AggCount:
		return data.Int(st.n)
	case AggSum:
		if st.n == 0 {
			return data.Null
		}
		return data.Float(st.sum)
	case AggAvg:
		if st.n == 0 {
			return data.Null
		}
		return data.Float(st.sum / float64(st.n))
	case AggMin:
		if len(st.vals) == 0 {
			return data.Null
		}
		first := true
		min := 0.0
		for v := range st.vals {
			if first || v < min {
				min, first = v, false
			}
		}
		return data.Float(min)
	case AggMax:
		if len(st.vals) == 0 {
			return data.Null
		}
		first := true
		max := 0.0
		for v := range st.vals {
			if first || v > max {
				max, first = v, false
			}
		}
		return data.Float(max)
	}
	return data.Null
}

// Groups reports the live group count (for plan displays).
func (a *Aggregate) Groups() int { return a.table.n }
