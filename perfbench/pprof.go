package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares is a CPU profile reduced to CPU time per Go package. Each
// sample is charged to the package of its leaf function — the profile's
// self time — so a package's share is the CPU spent in its own code.
// gcNanos additionally counts samples whose stack runs the garbage
// collector, wherever their leaf lies.
type cpuShares struct {
	total   int64
	byPkg   map[string]int64
	gcNanos int64
}

// add accumulates another profile (the traced run profiles each traced
// slice separately).
func (c *cpuShares) add(o cpuShares) {
	if c.byPkg == nil {
		c.byPkg = map[string]int64{}
	}
	c.total += o.total
	c.gcNanos += o.gcNanos
	for pkg, v := range o.byPkg {
		c.byPkg[pkg] += v
	}
}

// share returns the fraction of CPU time whose leaf lies in pkg.
func (c cpuShares) share(pkg string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.byPkg[pkg]) / float64(c.total)
}

// gcShare returns the fraction of CPU time spent in the garbage collector.
func (c cpuShares) gcShare() float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.gcNanos) / float64(c.total)
}

// gcRoots are the runtime functions under which garbage-collection work
// runs: background marking, mark assists, sweeping and scavenging.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// pkgOf returns the package path of a symbol name as the profile spells it
// ("optima/internal/spice.(*Circuit).step" → "optima/internal/spice").
// Type arguments may themselves contain paths, so they are cut first.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// parseCPUProfile reduces a runtime/pprof CPU profile (gzip-compressed
// profile.proto) to per-package CPU time. It decodes only the fields it
// needs: sample types, samples, locations, functions and strings.
func parseCPUProfile(data []byte) (cpuShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return cpuShares{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuShares{}, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return cpuShares{}, fmt.Errorf("profile: %w", err)
	}
	return p.shares()
}

type pbSample struct {
	locs   []uint64
	values []int64
}

type pbProfile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []pbSample
	locFuncs    map[uint64][]uint64 // location → function ids, leaf first
	funcNames   map[uint64]int64    // function → string-table index
	strings     []string
}

func (p *pbProfile) shares() (cpuShares, error) {
	col := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t >= 0 && int(t) < len(p.strings) && p.strings[t] == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return cpuShares{}, errors.New("profile: no sample types")
	}
	name := func(fid uint64) string {
		idx, ok := p.funcNames[fid]
		if !ok || idx < 0 || int(idx) >= len(p.strings) {
			return ""
		}
		return p.strings[idx]
	}
	out := cpuShares{byPkg: map[string]int64{}}
	for _, s := range p.samples {
		if col >= len(s.values) || len(s.locs) == 0 {
			continue
		}
		v := s.values[col]
		out.total += v
		if fids := p.locFuncs[s.locs[0]]; len(fids) > 0 {
			out.byPkg[pkgOf(name(fids[0]))] += v
		}
	gc:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if gcRoots[name(fid)] {
					out.gcNanos += v
					break gc
				}
			}
		}
	}
	return out, nil
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, r *pbReader) error {
		switch {
		case num == fProfileString && wire == wireBytes:
			s, err := r.bytes()
			p.strings = append(p.strings, string(s))
			return err
		case num == fProfileSampleType && wire == wireBytes:
			msg, err := r.bytes()
			if err != nil {
				return err
			}
			var typ int64
			err = eachField(msg, func(num, wire int, r *pbReader) error {
				if num == fValueTypeType && wire == wireVarint {
					v, err := r.varint()
					typ = int64(v)
					return err
				}
				return r.skip(wire)
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case num == fProfileSample && wire == wireBytes:
			msg, err := r.bytes()
			if err != nil {
				return err
			}
			var s pbSample
			err = eachField(msg, func(num, wire int, r *pbReader) error {
				switch num {
				case fSampleLocation:
					return r.uints(wire, func(v uint64) { s.locs = append(s.locs, v) })
				case fSampleValue:
					return r.uints(wire, func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return r.skip(wire)
			})
			p.samples = append(p.samples, s)
			return err
		case num == fProfileLocation && wire == wireBytes:
			msg, err := r.bytes()
			if err != nil {
				return err
			}
			var id uint64
			var fids []uint64
			err = eachField(msg, func(num, wire int, r *pbReader) error {
				switch {
				case num == fLocationID && wire == wireVarint:
					v, err := r.varint()
					id = v
					return err
				case num == fLocationLine && wire == wireBytes:
					line, err := r.bytes()
					if err != nil {
						return err
					}
					return eachField(line, func(num, wire int, r *pbReader) error {
						if num == fLineFunction && wire == wireVarint {
							v, err := r.varint()
							fids = append(fids, v)
							return err
						}
						return r.skip(wire)
					})
				}
				return r.skip(wire)
			})
			p.locFuncs[id] = fids
			return err
		case num == fProfileFunction && wire == wireBytes:
			msg, err := r.bytes()
			if err != nil {
				return err
			}
			var id uint64
			var nameIdx int64
			err = eachField(msg, func(num, wire int, r *pbReader) error {
				switch {
				case num == fFunctionID && wire == wireVarint:
					v, err := r.varint()
					id = v
					return err
				case num == fFunctionName && wire == wireVarint:
					v, err := r.varint()
					nameIdx = int64(v)
					return err
				}
				return r.skip(wire)
			})
			p.funcNames[id] = nameIdx
			return err
		}
		return r.skip(wire)
	})
	return p, err
}

// Protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

var errTruncated = errors.New("truncated protobuf")

// pbReader walks one protobuf message.
type pbReader struct{ b []byte }

// eachField calls fn for every field of msg; fn must consume the field's
// payload (read it or skip it).
func eachField(msg []byte, fn func(num, wire int, r *pbReader) error) error {
	r := &pbReader{b: msg}
	for len(r.b) > 0 {
		key, err := r.varint()
		if err != nil {
			return err
		}
		if err := fn(int(key>>3), int(key&7), r); err != nil {
			return err
		}
	}
	return nil
}

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for i := 0; i < len(r.b) && i < 10; i++ {
		c := r.b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			r.b = r.b[i+1:]
			return v, nil
		}
	}
	return 0, errTruncated
}

func (r *pbReader) bytes() ([]byte, error) {
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) {
		return nil, errTruncated
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

// uints reads a repeated integer field in either encoding: one varint, or
// a packed run of varints.
func (r *pbReader) uints(wire int, fn func(uint64)) error {
	switch wire {
	case wireVarint:
		v, err := r.varint()
		if err == nil {
			fn(v)
		}
		return err
	case wireBytes:
		packed, err := r.bytes()
		if err != nil {
			return err
		}
		pr := &pbReader{b: packed}
		for len(pr.b) > 0 {
			v, err := pr.varint()
			if err != nil {
				return err
			}
			fn(v)
		}
		return nil
	}
	return r.skip(wire)
}

func (r *pbReader) skip(wire int) error {
	var n int
	switch wire {
	case wireVarint:
		_, err := r.varint()
		return err
	case wireBytes:
		_, err := r.bytes()
		return err
	case wireI64:
		n = 8
	case wireI32:
		n = 4
	default:
		return fmt.Errorf("unsupported protobuf wire type %d", wire)
	}
	if len(r.b) < n {
		return errTruncated
	}
	r.b = r.b[n:]
	return nil
}
