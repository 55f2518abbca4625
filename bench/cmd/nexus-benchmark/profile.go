package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the modules the CPU ledger attributes time to, in report
// order: the repository's packages under internal/ that a simulation runs
// through, then the Go runtime's garbage collector and everything else.
var layers = []string{
	"workload", "simclock", "frontend", "ring", "backend", "gpusim",
	"profiler", "model", "scheduler", "globalsched", "queryopt", "metrics",
	"cluster", "trace", "telemetry", "forensics", "faults",
	"runtime", "other",
}

// gcFrames are function-name prefixes of the garbage collector: marking
// (background workers and allocation assists), sweeping, scavenging and
// write barriers. A sample with any of them on its stack is runtime cost,
// even when a repository frame sits below it.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.wbBuf", "runtime.sweepone", "runtime.deductSweepCredit",
}

// sample is one CPU profile sample: its stack, leaf first with inlined
// frames expanded, and its CPU time in nanoseconds.
type sample struct {
	stack []string
	ns    int64
}

// layerOf charges one stack to a layer. Garbage-collector time goes to
// runtime. Otherwise the leaf-most frame in a repository package names the
// layer: allocation and other runtime or standard-library helpers (map
// lookups, hashing, copying) are charged to the repository code that called
// them. A stack with no repository frame is runtime when its leaf is in the
// runtime, and other otherwise, as are repository packages outside the
// layer list.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return "runtime"
			}
		}
	}
	for _, fn := range stack {
		pkg := packageOf(fn)
		if pkg != "nexus" && !strings.HasPrefix(pkg, "nexus/") {
			continue
		}
		name, ok := strings.CutPrefix(pkg, "nexus/internal/")
		if !ok {
			return "other"
		}
		name, _, _ = strings.Cut(name, "/")
		for _, l := range layers[:len(layers)-2] {
			if l == name {
				return l
			}
		}
		return "other"
	}
	if len(stack) > 0 {
		if pkg := packageOf(stack[0]); pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
			return "runtime"
		}
	}
	return "other"
}

// packageOf returns the import path of a symbol such as
// "nexus/internal/ring.(*MPSC[...]).Push".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// ledger sums a profile's CPU time per layer.
func ledger(samples []sample) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range samples {
		out[layerOf(s.stack)] += s.ns
	}
	return out
}

var errTruncated = errors.New("profile: truncated message")

// decodeProfile parses a (gzipped) profile.proto CPU profile as written by
// runtime/pprof, keeping only what the ledger needs: each sample's stack
// and its cpu/nanoseconds value.
func decodeProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		valueTypes []uint64 // string index of each sample type's name
		raws       []rawSample
		locFuncs   = map[uint64][]uint64{} // location ID -> function IDs, leaf first
		funcNames  = map[uint64]uint64{}   // function ID -> name string index
		strs       []string
	)
	p := pbuf{data}
	for len(p.b) > 0 {
		f, err := p.next()
		if err != nil {
			return nil, err
		}
		switch f.num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			vt, err := fieldsOf(f.payload)
			if err != nil {
				return nil, err
			}
			valueTypes = append(valueTypes, vt[1])
		case 2: // sample: {location_id=1, value=2, label=3}
			var s rawSample
			q := pbuf{f.payload}
			for len(q.b) > 0 {
				g, err := q.next()
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs, err = g.appendUints(s.locs)
				case 2:
					s.values, err = g.appendUints(s.values)
				}
				if err != nil {
					return nil, err
				}
			}
			raws = append(raws, s)
		case 4: // location: {id=1, ..., line=4 {function_id=1, line=2}}
			var id uint64
			var funcs []uint64
			q := pbuf{f.payload}
			for len(q.b) > 0 {
				g, err := q.next()
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					id = g.v
				case 4:
					line, err := fieldsOf(g.payload)
					if err != nil {
						return nil, err
					}
					funcs = append(funcs, line[1])
				}
			}
			locFuncs[id] = funcs
		case 5: // function: {id=1, name=2, ...}
			fn, err := fieldsOf(f.payload)
			if err != nil {
				return nil, err
			}
			funcNames[fn[1]] = fn[2]
		case 6: // string_table
			strs = append(strs, string(f.payload))
		}
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	// The CPU time column is the sample type named "cpu"; fall back to the
	// last column.
	col := len(valueTypes) - 1
	for i, t := range valueTypes {
		if s, err := str(t); err == nil && s == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]sample, 0, len(raws))
	for _, r := range raws {
		if col >= len(r.values) {
			return nil, fmt.Errorf("profile: sample has %d values, want > %d", len(r.values), col)
		}
		s := sample{ns: int64(r.values[col])}
		for _, loc := range r.locs {
			funcs, ok := locFuncs[loc]
			if !ok {
				return nil, fmt.Errorf("profile: unknown location %d", loc)
			}
			for _, fid := range funcs {
				name, err := str(funcNames[fid])
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// pbuf reads protobuf wire format.
type pbuf struct{ b []byte }

// field is one decoded field: its number, wire type, and either its
// varint/fixed value or its length-delimited payload.
type field struct {
	num, wire int
	v         uint64
	payload   []byte
}

func (p *pbuf) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("profile: varint overflows 64 bits")
}

func (p *pbuf) next() (field, error) {
	key, err := p.varint()
	if err != nil {
		return field{}, err
	}
	f := field{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return f, errTruncated
		}
		f.v, p.b = binary.LittleEndian.Uint64(p.b), p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return f, errTruncated
			}
			f.payload, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return f, errTruncated
		}
		f.v, p.b = uint64(binary.LittleEndian.Uint32(p.b)), p.b[4:]
	default:
		return f, fmt.Errorf("profile: unsupported wire type %d", f.wire)
	}
	return f, err
}

// appendUints appends a repeated integer field's values, packed or not.
func (f field) appendUints(dst []uint64) ([]uint64, error) {
	if f.wire != 2 {
		return append(dst, f.v), nil
	}
	q := pbuf{f.payload}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// scalars holds the first value of each integer field of a small message.
type scalars map[int]uint64

// fieldsOf decodes a message made only of integer fields.
func fieldsOf(b []byte) (scalars, error) {
	out := scalars{}
	p := pbuf{b}
	for len(p.b) > 0 {
		f, err := p.next()
		if err != nil {
			return nil, err
		}
		if _, seen := out[f.num]; !seen && f.wire != 2 {
			out[f.num] = f.v
		}
	}
	return out, nil
}
