package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// profLayers are the buckets of prof.* host-time shares, in report order.
var profLayers = []string{
	"exec", "rt", "cache", "swap", "prefetch", "transport", "cluster",
	"planner", "offload", "serve", "goruntime", "other",
}

// profLayer maps a fully qualified function name from a CPU profile to the
// layer its package belongs to.
func profLayer(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/"):
		return "goruntime"
	case !strings.HasPrefix(pkg, "mira/internal/"):
		return "other"
	}
	switch strings.TrimPrefix(pkg, "mira/internal/") {
	case "exec", "ir":
		return "exec"
	case "rt", "plane":
		return "rt"
	case "cache":
		return "cache"
	case "swap", "baselines/fastswap":
		return "swap"
	case "prefetch":
		return "prefetch"
	case "transport", "netmodel", "codec":
		return "transport"
	case "cluster", "faults", "farmem":
		return "cluster"
	case "planner", "analysis", "codegen", "solver", "profile":
		return "planner"
	case "offload":
		return "offload"
	case "serve":
		return "serve"
	}
	return "other"
}

// cpuShares accumulates leaf-function CPU time per layer over one or more
// pprof CPU profiles.
type cpuShares map[string]int64

// add parses one gzip-compressed pprof profile and credits each sample's CPU
// time to the layer of its innermost function.
func (s cpuShares) add(raw []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, smp := range p.samples {
		if len(smp.locs) == 0 || len(smp.values) == 0 {
			continue
		}
		fn := p.locLeaf[smp.locs[0]]
		s[profLayer(p.funcName(fn))] += smp.values[len(smp.values)-1]
	}
	return nil
}

// shares returns each layer's fraction of the accumulated CPU time.
func (s cpuShares) shares() map[string]float64 {
	var total int64
	for _, v := range s {
		total += v
	}
	out := map[string]float64{}
	for _, l := range profLayers {
		if total > 0 {
			out[l] = float64(s[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}

// profile is the subset of the pprof protobuf (profile.proto) the share
// computation needs: samples, each location's innermost function, and the
// function and string tables.
type profile struct {
	samples []profSample
	locLeaf map[uint64]uint64 // location id -> innermost function id
	funcStr map[uint64]int64  // function id -> name string index
	strings []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

func (p *profile) funcName(id uint64) string {
	i, ok := p.funcStr[id]
	if !ok || i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errTruncated = errors.New("truncated protobuf")

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// pbFields decodes a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, n = uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
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
		return []uint64{f.value}, nil
	}
	var out []uint64
	b := f.bytes
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// Field numbers from profile.proto.
const (
	pbProfileSample   = 2
	pbProfileLocation = 4
	pbProfileFunction = 5
	pbProfileString   = 6
	pbSampleLocation  = 1
	pbSampleValue     = 2
	pbLocationID      = 1
	pbLocationLine    = 4
	pbLineFunction    = 1
	pbFunctionID      = 1
	pbFunctionName    = 2
)

func parseProfile(data []byte) (*profile, error) {
	top, err := pbFields(data)
	if err != nil {
		return nil, err
	}
	p := &profile{locLeaf: map[uint64]uint64{}, funcStr: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case pbProfileSample:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s profSample
			for _, sf := range fs {
				vs, err := varints(sf)
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case pbSampleLocation:
					s.locs = append(s.locs, vs...)
				case pbSampleValue:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case pbProfileLocation:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, leaf uint64
			leafSet := false
			for _, lf := range fs {
				switch lf.num {
				case pbLocationID:
					id = lf.value
				case pbLocationLine:
					if leafSet {
						continue // the first line is the innermost inlined frame
					}
					lfs, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, x := range lfs {
						if x.num == pbLineFunction {
							leaf, leafSet = x.value, true
						}
					}
				}
			}
			p.locLeaf[id] = leaf
		case pbProfileFunction:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range fs {
				switch ff.num {
				case pbFunctionID:
					id = ff.value
				case pbFunctionName:
					name = int64(ff.value)
				}
			}
			p.funcStr[id] = name
		case pbProfileString:
			p.strings = append(p.strings, string(f.bytes))
		}
	}
	return p, nil
}

// allocSampleRate is the heap-profile sampling rate (bytes) of the
// allocation pass: fine enough that every allocation size is sampled
// often, coarse enough that the pass costs a few times a plain run.
const allocSampleRate = 256

// allocSnapshot maps a heap-profile stack to its cumulative sampled
// allocation count and bytes.
type allocSnapshot map[[32]uintptr][2]int64

// snapshotAllocs returns the current heap profile's cumulative sampled
// allocations per stack. Two collections first publish every allocation
// made before the call (the profile lags by up to two GC cycles).
func snapshotAllocs() allocSnapshot {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := allocSnapshot{}
	for _, r := range recs[:n] {
		v := out[r.Stack0]
		out[r.Stack0] = [2]int64{v[0] + r.AllocObjects, v[1] + r.AllocBytes}
	}
	return out
}

// backendAllocs estimates the allocations made between two snapshots whose
// stacks pass through a tracedBackend method, i.e. inside a Backend call.
// Sampled counts are scaled up the way pprof does: an allocation of s
// bytes is sampled with probability 1 - exp(-s/rate).
func backendAllocs(before, after allocSnapshot, rate int) float64 {
	var n float64
	for stk, v := range after {
		objs, bytes := v[0]-before[stk][0], v[1]-before[stk][1]
		if objs <= 0 || !insideBackend(stk) {
			continue
		}
		avg := float64(bytes) / float64(objs)
		n += float64(objs) / (1 - math.Exp(-avg/float64(rate)))
	}
	return n
}

func insideBackend(stk [32]uintptr) bool {
	frames := runtime.CallersFrames(trimStack(stk))
	for {
		fr, more := frames.Next()
		if strings.Contains(fr.Function, ".(*tracedBackend).") {
			return true
		}
		if !more {
			return false
		}
	}
}

func trimStack(stk [32]uintptr) []uintptr {
	for i, pc := range stk {
		if pc == 0 {
			return stk[:i]
		}
	}
	return stk[:]
}
