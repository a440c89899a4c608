package main

// A hand decoder for the gzip-compressed profile.proto that
// runtime/pprof writes — only the four messages attribution needs
// (Sample, Location, Line, Function) and the string table — so the
// benchmark adds no module dependency.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// profSample is one stack with its sample count and CPU nanoseconds.
// stack[0] is the leaf; inlined callees come before their callers.
type profSample struct {
	stack []string
	count int64
	nanos int64
}

var errProto = errors.New("pprof: malformed protobuf")

// protoField is one decoded field: a varint value or a byte payload.
type protoField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

// walk calls fn for each top-level field of msg.
func walk(msg []byte, fn func(protoField) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errProto
			}
			f.value, msg = v, msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			f.data, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, -1
}

// repeated appends a repeated integer field, packed or not.
func repeated(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// decodeProfile returns the samples of a runtime/pprof CPU profile
// (sample values: [count, nanoseconds]).
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id → string index
		strs      []string
	)
	err = walk(raw, func(f protoField) error {
		switch f.num {
		case 2: // sample
			var s rawSample
			if err := walk(f.data, func(g protoField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = repeated(s.locs, g)
				case 2:
					s.vals, err = repeated(s.vals, g)
				}
				return err
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := walk(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.value
				case 4: // line
					return walk(g.data, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.value)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			if err := walk(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = g.value
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, errProto
		}
		ps := profSample{count: int64(s.vals[0]), nanos: int64(s.vals[1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}
