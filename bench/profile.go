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

// A CPU profile from runtime/pprof is a gzip-compressed profile.proto
// message. Only the fields needed to find each sample's leaf function are
// decoded here, by hand, so the benchmark needs neither a dependency nor
// `go tool pprof`. Field numbers are those of
// github.com/google/pprof/proto/profile.proto.
const (
	profSample      = 2 // Profile.sample
	profLocation    = 4 // Profile.location
	profFunction    = 5 // Profile.function
	profStringTable = 6 // Profile.string_table

	sampleLocationID = 1 // Sample.location_id, leaf first
	sampleValue      = 2 // Sample.value, one per sample type

	locationID   = 1 // Location.id
	locationLine = 4 // Location.line, innermost inlined call first
	lineFunction = 1 // Line.function_id
	functionID   = 1 // Function.id
	functionName = 2 // Function.name, index into string_table
)

var errProfile = errors.New("malformed profile")

// protoField is one decoded field of a protobuf message: a varint value
// or a length-delimited payload, by wire type.
type protoField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProfile
}

// eachField calls fn for every field of the message in b.
func eachField(b []byte, fn func(f protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, rest, err = readVarint(rest)
			if err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errProfile
			}
			rest = rest[8:]
		case 2:
			n, r, err := readVarint(rest)
			if err != nil || n > uint64(len(r)) {
				return errProfile
			}
			f.bytes, rest = r[:n], r[n:]
		case 5:
			if len(rest) < 4 {
				return errProfile
			}
			rest = rest[4:]
		default:
			return errProfile
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// repeatedVarints appends a repeated integer field's values, packed or not.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// leafWeights decodes a gzip-compressed CPU profile and returns the
// sampled weight (the last sample type: CPU nanoseconds) per leaf
// function name, plus the number of samples taken (the first sample type;
// the profile stores each distinct stack once, with its count).
func leafWeights(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf   uint64
		weight float64
	}
	var (
		taken    int
		samples  []sample
		strs     []string
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]uint64{} // function id -> string index
	)
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case profStringTable:
			strs = append(strs, string(f.bytes))
		case profSample:
			var locs, vals []uint64
			err := eachField(f.bytes, func(sf protoField) (err error) {
				switch sf.num {
				case sampleLocationID:
					locs, err = repeatedVarints(locs, sf)
				case sampleValue:
					vals, err = repeatedVarints(vals, sf)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], weight: float64(int64(vals[len(vals)-1]))})
				taken += int(vals[0])
			}
		case profLocation:
			var id, fn uint64
			seen := false
			err := eachField(f.bytes, func(lf protoField) error {
				switch lf.num {
				case locationID:
					id = lf.value
				case locationLine:
					if seen {
						return nil // callers of the inlined leaf
					}
					seen = true
					return eachField(lf.bytes, func(ln protoField) error {
						if ln.num == lineFunction {
							fn = ln.value
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case profFunction:
			var id, name uint64
			err := eachField(f.bytes, func(ff protoField) error {
				switch ff.num {
				case functionID:
					id = ff.value
				case functionName:
					name = ff.value
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		name := "?"
		if idx, ok := funcName[locFunc[s.leaf]]; ok && idx < uint64(len(strs)) {
			name = strs[idx]
		}
		out[name] += s.weight
	}
	return out, taken, nil
}

// layerOf buckets a fully qualified function name by the package that
// owns it: a module package goes to the layer named after its last path
// element, the Go runtime and the support packages it drags in (GC,
// malloc, memmove, scheduler, futex, atomics) to "runtime", and the rest
// (other standard library, module packages without a layer, this harness)
// to "other".
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "fsoi/internal/"); ok {
		last := rest[strings.LastIndexByte(rest, '/')+1:]
		for _, l := range cpuLayers {
			if l == last {
				return l
			}
		}
		return "other"
	}
	switch first, _, _ := strings.Cut(pkg, "/"); first {
	case "runtime", "internal", "sync", "syscall":
		return "runtime"
	}
	return "other"
}

// cpuShares folds leaf weights into per-layer shares of the total, adding
// in name order so the floats do not depend on map order.
func cpuShares(weights map[string]float64) map[string]float64 {
	names := make([]string, 0, len(weights))
	for fn := range weights {
		names = append(names, fn)
	}
	sort.Strings(names)
	shares := map[string]float64{}
	total := 0.0
	for _, fn := range names {
		shares[layerOf(fn)] += weights[fn]
		total += weights[fn]
	}
	if total > 0 {
		for _, l := range shareLayers {
			shares[l] /= total
		}
	}
	return shares
}
