package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file decodes the CPU profiles runtime/pprof writes (gzipped
// profile.proto) and buckets each sample by the innermost frame of the
// repo's own modules on its stack, so layers the benchmark cannot wrap
// from outside — operators inside shard workers, sensing inside RunFor —
// still get their self time.

// cpuBuckets lists the reported buckets: one per aspen/internal module,
// then background GC, socket I/O, the Go scheduler, the benchmark itself,
// and everything else.
var cpuBuckets = []string{
	"stream", "plan", "expr", "data", "sensor", "sensornet", "smartcis", "machines",
	"core", "vtime", "routing", "building", "wrappers", "federation", "sql", "catalog", "views",
	"gc", "net", "sched", "bench", "other",
}

const modulePrefix = "aspen/internal/"

// buckets counts profile samples per bucket.
type buckets struct {
	n     map[string]int64
	total int64
}

func (b *buckets) share(name string) float64 {
	if b.total == 0 {
		return 0
	}
	return float64(b.n[name]) / float64(b.total)
}

// table renders the buckets, largest first, as a text table.
func (b *buckets) table() string {
	names := append([]string(nil), cpuBuckets...)
	sort.SliceStable(names, func(i, j int) bool { return b.n[names[i]] > b.n[names[j]] })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %8s %7s\n", "bucket", "samples", "share")
	for _, n := range names {
		fmt.Fprintf(&sb, "%-12s %8d %6.1f%%\n", n, b.n[n], 100*b.share(n))
	}
	fmt.Fprintf(&sb, "%-12s %8d\n", "total", b.total)
	return sb.String()
}

// bucketProfiles decodes and buckets every profile.
func bucketProfiles(profiles [][]byte) (*buckets, error) {
	b := &buckets{n: map[string]int64{}}
	for _, raw := range profiles {
		p, err := decodeProfile(raw)
		if err != nil {
			return nil, err
		}
		for _, s := range p.samples {
			name := classify(p.stack(s.locs))
			b.n[name] += s.count
			b.total += s.count
		}
	}
	return b, nil
}

// classify picks the bucket of one stack, given leaf first.
func classify(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), fn == "runtime.bgsweep", fn == "runtime.bgscavenge":
			return "gc"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, modulePrefix):
			mod := fn[len(modulePrefix):]
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			return mod
		case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "runtime/pprof."):
			return "bench"
		case strings.HasPrefix(fn, "internal/poll."), strings.HasPrefix(fn, "net."):
			return "net"
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.park_m",
			"runtime.mstart", "runtime.goexit0", "runtime.gosched_m", "runtime.goschedImpl":
			return "sched"
		}
	}
	return "other"
}

// profile is the part of a decoded profile.proto the bucketing needs.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

type sample struct {
	locs  []uint64
	count int64
}

// stack names the frames of a sample, leaf first, inlined calls expanded.
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locs[l] {
			if i := p.funcs[f]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

func decodeProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	buf, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	d := pb{b: buf}
	for !d.done() {
		num, typ, err := d.key()
		if err != nil {
			return nil, err
		}
		if typ != 2 {
			if err := d.skip(typ); err != nil {
				return nil, err
			}
			continue
		}
		msg, err := d.bytes()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2:
			s, err := decodeSample(msg)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4:
			id, fns, err := decodeLocation(msg)
			if err != nil {
				return nil, err
			}
			p.locs[id] = fns
		case 5:
			id, name, err := decodeFunction(msg)
			if err != nil {
				return nil, err
			}
			p.funcs[id] = name
		case 6:
			p.strs = append(p.strs, string(msg))
		}
	}
	return p, nil
}

// decodeSample reads location_id (1) and the first value (2).
func decodeSample(msg []byte) (sample, error) {
	var s sample
	var vals []uint64
	d := pb{b: msg}
	for !d.done() {
		num, typ, err := d.key()
		if err != nil {
			return s, err
		}
		switch {
		case num == 1:
			if s.locs, err = d.uints(typ, s.locs); err != nil {
				return s, err
			}
		case num == 2:
			if vals, err = d.uints(typ, vals); err != nil {
				return s, err
			}
		default:
			if err := d.skip(typ); err != nil {
				return s, err
			}
		}
	}
	if len(vals) > 0 {
		s.count = int64(vals[0])
	}
	return s, nil
}

// decodeLocation reads id (1) and the function ids of its lines (4).
func decodeLocation(msg []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	d := pb{b: msg}
	for !d.done() {
		num, typ, err := d.key()
		if err != nil {
			return 0, nil, err
		}
		switch {
		case num == 1 && typ == 0:
			if id, err = d.varint(); err != nil {
				return 0, nil, err
			}
		case num == 4 && typ == 2:
			line, err := d.bytes()
			if err != nil {
				return 0, nil, err
			}
			ld := pb{b: line}
			for !ld.done() {
				ln, lt, err := ld.key()
				if err != nil {
					return 0, nil, err
				}
				if ln == 1 && lt == 0 {
					f, err := ld.varint()
					if err != nil {
						return 0, nil, err
					}
					fns = append(fns, f)
				} else if err := ld.skip(lt); err != nil {
					return 0, nil, err
				}
			}
		default:
			if err := d.skip(typ); err != nil {
				return 0, nil, err
			}
		}
	}
	return id, fns, nil
}

// decodeFunction reads id (1) and the name's string index (2).
func decodeFunction(msg []byte) (uint64, int64, error) {
	var id uint64
	name := int64(-1)
	d := pb{b: msg}
	for !d.done() {
		num, typ, err := d.key()
		if err != nil {
			return 0, 0, err
		}
		if typ == 0 && (num == 1 || num == 2) {
			v, err := d.varint()
			if err != nil {
				return 0, 0, err
			}
			if num == 1 {
				id = v
			} else {
				name = int64(v)
			}
			continue
		}
		if err := d.skip(typ); err != nil {
			return 0, 0, err
		}
	}
	return id, name, nil
}

// pb is a minimal protobuf wire-format reader.
type pb struct {
	b []byte
	i int
}

var errTruncated = errors.New("truncated protobuf")

func (d *pb) done() bool { return d.i >= len(d.b) }

func (d *pb) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if d.i >= len(d.b) {
			return 0, errTruncated
		}
		c := d.b[d.i]
		d.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("protobuf varint overflow")
}

func (d *pb) key() (num, typ int, err error) {
	k, err := d.varint()
	return int(k >> 3), int(k & 7), err
}

func (d *pb) bytes() ([]byte, error) {
	n, err := d.varint()
	if err != nil {
		return nil, err
	}
	if uint64(len(d.b)-d.i) < n {
		return nil, errTruncated
	}
	out := d.b[d.i : d.i+int(n)]
	d.i += int(n)
	return out, nil
}

// uints appends one varint field value, or a packed run of them.
func (d *pb) uints(typ int, to []uint64) ([]uint64, error) {
	if typ == 0 {
		v, err := d.varint()
		return append(to, v), err
	}
	if typ != 2 {
		return to, fmt.Errorf("protobuf: wire type %d for a varint field", typ)
	}
	packed, err := d.bytes()
	if err != nil {
		return to, err
	}
	pd := pb{b: packed}
	for !pd.done() {
		v, err := pd.varint()
		if err != nil {
			return to, err
		}
		to = append(to, v)
	}
	return to, nil
}

func (d *pb) skip(typ int) error {
	switch typ {
	case 0:
		_, err := d.varint()
		return err
	case 1:
		d.i += 8
	case 2:
		_, err := d.bytes()
		return err
	case 5:
		d.i += 4
	default:
		return fmt.Errorf("protobuf: unknown wire type %d", typ)
	}
	if d.i > len(d.b) {
		return errTruncated
	}
	return nil
}
