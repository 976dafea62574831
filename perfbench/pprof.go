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

// Time spent inside sim.Run's cooperative tasks and rt's goroutines has no
// span of the benchmark's around it, so a traced run takes a CPU profile
// and attributes every sample to one bucket: the layer package its leaf
// function belongs to, or a Go runtime bucket. The profile is decoded with
// a minimal reader of the pprof protobuf, which needs no dependency.

// Runtime buckets.
const (
	bucketGC     = "runtime.gc"
	bucketMalloc = "runtime.malloc"
	bucketSched  = "runtime.sched"
	bucketRTOth  = "runtime.other"
	bucketOther  = "other"
)

// layerPkgs maps package import paths to layer buckets. Packages not listed
// (sort, sync, math, ...) are helpers: a sample in one is charged to the
// nearest caller that is listed.
var layerPkgs = map[string]string{
	"mpioffload/internal/vclock":    "vclock",
	"container/heap":                "vclock",
	"mpioffload/internal/proto":     "proto",
	"mpioffload/internal/core":      "core",
	"mpioffload/internal/fabric":    "fabric",
	"mpioffload/internal/topo":      "fabric",
	"mpioffload/internal/queue":     "queue",
	"mpioffload/internal/reqpool":   "reqpool",
	"mpioffload/sim":                "sim",
	"mpioffload/mpi":                "sim",
	"mpioffload/bench":              "sim",
	"mpioffload/internal/coll":      "sim",
	"mpioffload/apps/qcd":           "qcd",
	"mpioffload/rt":                 "rt",
	"mpioffload/internal/transport": "transport",
	"syscall":                       "syscall",
	"internal/poll":                 "syscall",
	"internal/syscall/unix":         "syscall",
	"net":                           "syscall",
	"os":                            "syscall",
	"main":                          "harness",
	"mpioffload/perfbench":          "harness",
}

// profileBuckets lists every bucket a profile can produce, so that each run
// reports the same metric names.
var profileBuckets = []string{
	"vclock", "proto", "core", "fabric", "queue", "reqpool", "sim", "qcd",
	"rt", "transport", "syscall", "harness",
	bucketGC, bucketMalloc, bucketSched, bucketRTOth, bucketOther,
}

// pkgOf returns the import path of a Go symbol name such as
// "mpioffload/internal/queue.(*MPMC[...]).Push" or "runtime.mallocgc".
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

var (
	gcMarks = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.(*mspan).sweep", "runtime.wbBufFlush"}
	mallocMarks = []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.newarray", "runtime.makemap", "runtime.rawstring"}
	schedMarks = []string{"runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.schedule",
		"runtime.park_m", "runtime.findRunnable", "runtime.mcall", "runtime.gosched",
		"runtime.Gosched", "runtime.goschedImpl", "runtime.wakep", "runtime.stopm",
		"runtime.startm", "runtime.notesleep", "runtime.semacquire", "runtime.semrelease",
		"runtime.netpoll", "runtime.exitsyscall", "runtime.entersyscall"}
)

// stackHas reports whether any frame starts with one of the marks.
func stackHas(stack []string, marks []string) bool {
	for _, f := range stack {
		for _, m := range marks {
			if strings.HasPrefix(f, m) {
				return true
			}
		}
	}
	return false
}

// bucketOf attributes one sample, given its stack from leaf to root.
// Runtime work is charged to garbage collection, allocation or scheduling
// (goroutine handoff, parking, channel operations) when the stack shows it
// was done for them; otherwise, like any helper package, to the nearest
// caller in a listed package.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return bucketOther
	}
	if isRuntime(pkgOf(stack[0])) {
		switch {
		case stackHas(stack, gcMarks):
			return bucketGC
		case stackHas(stack, mallocMarks):
			return bucketMalloc
		case stackHas(stack, schedMarks):
			return bucketSched
		}
	}
	for _, f := range stack {
		if b, ok := layerPkgs[pkgOf(f)]; ok {
			return b
		}
	}
	if isRuntime(pkgOf(stack[0])) {
		return bucketRTOth
	}
	return bucketOther
}

// bucketProfile decodes a gzipped pprof CPU profile and sums its sample
// CPU time (ns) per bucket.
func bucketProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	vi := p.sampleTypes - 1 // CPU profiles: [samples/count, cpu/nanoseconds]
	if vi < 0 {
		return nil, errors.New("cpu profile: no sample types")
	}
	out := make(map[string]int64, len(profileBuckets))
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				stack = append(stack, p.strings[p.funcName[fid]])
			}
		}
		out[bucketOf(stack)] += s.values[vi]
	}
	return out, nil
}

// profile holds the parts of a pprof profile the bucketing needs.
type profile struct {
	sampleTypes int
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcName    map[uint64]int64    // function id -> string table index
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// pbField is one decoded protobuf field.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited payload
}

// pbFields splits a protobuf message into fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("short fixed64")
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bad length")
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("short fixed32")
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func varints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// decodeProfile reads the Profile message fields: sample_type (1),
// sample (2), location (4), function (5) and string_table (6).
func decodeProfile(raw []byte) (*profile, error) {
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	for _, f := range fields {
		switch f.num {
		case 1:
			p.sampleTypes++
		case 2:
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s sample
			for _, g := range sub {
				vs, err := varints(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4:
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					line, err := pbFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 {
							funcs = append(funcs, l.v)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5:
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(f.b))
		}
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("function name outside string table")
		}
	}
	return p, nil
}
