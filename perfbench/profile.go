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

// layers are the CPU attribution buckets: one per kunserve/internal
// package (sub-packages fold into their parent except cluster/engine and
// core/lookahead), the Go GC, and everything else.
var layers = []string{
	"sim", "cluster", "engine", "kvcache", "request", "batching", "gpu",
	"costmodel", "pipeline", "network", "memory", "core", "lookahead",
	"baselines", "sched", "metrics", "workload", "runner", "instance",
	"experiments", "model", "obs", "gc", "other",
}

const internalPrefix = "kunserve/internal/"

// gcFrames mark a stack as GC work wherever they appear in it: the
// background mark worker, mutator assists, and the background sweeper and
// scavenger.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// layerOf buckets one sample's stack (leaf first): stacks under GC work go
// to "gc", others to the leaf-most kunserve/internal frame's layer, and the
// rest (runtime, harness, standard library without an internal caller) to
// "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "gc"
		}
	}
	for _, fn := range stack {
		if l, ok := internalLayer(fn); ok {
			return l
		}
	}
	return "other"
}

// internalLayer maps a function name such as
// "kunserve/internal/cluster/engine.(*Engine).round" to its layer.
func internalLayer(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	// Package directories hold no dots, so the first dot ends the path.
	pkg, _, _ := strings.Cut(rest, ".")
	switch pkg {
	case "cluster/engine":
		return "engine", true
	case "core/lookahead":
		return "lookahead", true
	}
	top, _, _ := strings.Cut(pkg, "/")
	for _, l := range layers {
		if l == top {
			return l, true
		}
	}
	return "other", false
}

// profileSample is one decoded CPU sample: its stack of function names,
// leaf first, and its CPU time.
type profileSample struct {
	stack []string
	nanos int64
}

// parseProfile decodes a gzipped pprof CPU profile (the format
// runtime/pprof writes) into samples. It reads only the fields the
// bucketing needs: sample types, samples, locations, functions and the
// string table.
func parseProfile(data []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs        []string
		sampleTypes []int64 // string index of each value's type
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id -> name string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds); take the cpu
	// value, falling back to the last one.
	vi := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample missing its value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				stack = append(stack, str(funcNames[fid]))
			}
		}
		out = append(out, profileSample{stack: stack, nanos: s.values[vi]})
	}
	return out, nil
}

// bucketProfile sums sample CPU time per layer.
func bucketProfile(samples []profileSample) (byLayer map[string]int64, total int64) {
	byLayer = map[string]int64{}
	for _, s := range samples {
		byLayer[layerOf(s.stack)] += s.nanos
		total += s.nanos
	}
	return byLayer, total
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or byte payload.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (wire 0) or packed (wire 2).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
