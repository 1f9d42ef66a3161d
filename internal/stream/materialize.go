package stream

import (
	"fmt"
	"sort"
	"sync"

	"aspen/internal/data"
)

// OrderSpec is one sort key for snapshots.
type OrderSpec struct {
	Col  string
	Desc bool
}

// Materialize maintains the current multiset of result tuples of a
// continuous query. Displays take ordered snapshots from it — this is how
// ORDER BY / LIMIT are given meaning over unbounded streams, and how the
// SmartCIS GUI renders live results (§4).
//
// Rows are keyed by 64-bit hashes of the full canonical key with
// collision buckets verified by EqualVals, and retired rows feed a small
// freelist, so the steady-state retract/insert churn of upstream
// aggregates allocates nothing.
type Materialize struct {
	mu     sync.Mutex
	schema *data.Schema
	rows   map[uint64][]*matRow
	n      int // distinct rows
	free   []*matRow
	hasher data.Hasher
	// OnChange, when set, fires after every mutation; the GUI uses it to
	// repaint.
	OnChange func()
	version  uint64
}

type matRow struct {
	t     data.Tuple
	count int
}

// freelistCap bounds retained retired rows.
const freelistCap = 1024

// NewMaterialize creates an empty materialized result with the schema.
func NewMaterialize(schema *data.Schema) *Materialize {
	return &Materialize{schema: schema, rows: map[uint64][]*matRow{}}
}

// Schema implements Operator.
func (m *Materialize) Schema() *data.Schema { return m.schema }

// apply performs one mutation under m.mu.
func (m *Materialize) apply(t data.Tuple) {
	key := m.hasher.Hash(t) & testHashMask
	bucket := m.rows[key]
	slot := -1
	for i, r := range bucket {
		if r.t.EqualVals(t) {
			slot = i
			break
		}
	}
	switch t.Op {
	case data.Insert:
		if slot >= 0 {
			bucket[slot].count++
			break
		}
		var r *matRow
		if n := len(m.free); n > 0 {
			r = m.free[n-1]
			m.free = m.free[:n-1]
			r.t = t.CloneInto(r.t.Vals)
		} else {
			r = &matRow{t: t.Clone()}
		}
		r.count = 1
		m.rows[key] = append(bucket, r)
		m.n++
	case data.Delete:
		if slot < 0 {
			break
		}
		r := bucket[slot]
		r.count--
		if r.count <= 0 {
			bucket[slot] = bucket[len(bucket)-1]
			bucket[len(bucket)-1] = nil
			m.rows[key] = bucket[:len(bucket)-1]
			if len(m.rows[key]) == 0 {
				delete(m.rows, key)
			}
			m.n--
			if len(m.free) < freelistCap {
				m.free = append(m.free, r)
			}
		}
	}
	m.version++
}

// Push implements Operator.
func (m *Materialize) Push(t data.Tuple) {
	m.mu.Lock()
	m.apply(t)
	cb := m.OnChange
	m.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// PushBatch implements BatchOperator: one lock acquisition and one
// OnChange notification per batch.
func (m *Materialize) PushBatch(ts []data.Tuple) {
	if len(ts) == 0 {
		return
	}
	m.mu.Lock()
	for _, t := range ts {
		m.apply(t)
	}
	cb := m.OnChange
	m.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// ChainOnChange installs fn to run after any already-installed OnChange
// hook, atomically with respect to concurrent mutations — use it instead
// of writing the OnChange field once the materialize may be receiving
// pushes (e.g. from shard workers).
func (m *Materialize) ChainOnChange(fn func()) {
	m.mu.Lock()
	prev := m.OnChange
	if prev == nil {
		m.OnChange = fn
	} else {
		m.OnChange = func() { prev(); fn() }
	}
	m.mu.Unlock()
}

// Len returns the number of distinct rows currently in the result.
func (m *Materialize) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// Version increments once per applied delta; displays poll it cheaply.
// Upstream aggregates emit per batch, so one batch moves Version by at
// most two per changed group (retract the old row, insert the new one):
// the intermediate values a group takes inside a batch never reach the
// result and are never counted.
func (m *Materialize) Version() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// Snapshot returns the current result ordered by the given keys (ties
// broken by canonical key for determinism), truncated to limit when
// limit >= 0. Duplicate rows appear with their multiplicity.
func (m *Materialize) Snapshot(order []OrderSpec, limit int) ([]data.Tuple, error) {
	idx := make([]int, len(order))
	for i, o := range order {
		j, err := m.schema.ColIndex(o.Col)
		if err != nil {
			return nil, fmt.Errorf("stream: snapshot order: %w", err)
		}
		idx[i] = j
	}
	m.mu.Lock()
	out := make([]data.Tuple, 0, m.n)
	for _, bucket := range m.rows {
		for _, r := range bucket {
			for i := 0; i < r.count; i++ {
				out = append(out, r.t.Clone())
			}
		}
	}
	m.mu.Unlock()

	sort.Slice(out, func(a, b int) bool {
		for k, j := range idx {
			c, ok := out[a].Vals[j].Compare(out[b].Vals[j])
			if !ok || c == 0 {
				// NULLs and ties fall through to the next key
				if ok && c == 0 {
					continue
				}
				// order NULLs first deterministically
				an, bn := out[a].Vals[j].IsNull(), out[b].Vals[j].IsNull()
				if an != bn {
					return an && !order[k].Desc || !an && order[k].Desc
				}
				continue
			}
			if order[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return out[a].Key() < out[b].Key()
	})
	if limit >= 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// MustSnapshot is Snapshot for statically correct order keys.
func (m *Materialize) MustSnapshot(order []OrderSpec, limit int) []data.Tuple {
	out, err := m.Snapshot(order, limit)
	if err != nil {
		panic(err)
	}
	return out
}
