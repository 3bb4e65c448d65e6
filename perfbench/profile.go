package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is decoded here, with the standard library alone, from
// the gzipped protocol-buffer form runtime/pprof writes (the message
// layout of github.com/google/pprof's profile.proto). Only the fields the
// flat attribution needs are read: samples, locations with their line
// records, functions, and the string table.

// cpuShares accumulates flat CPU nanoseconds per Go package path.
type cpuShares struct {
	byPkg map[string]int64
	total int64
}

func newCPUShares() *cpuShares { return &cpuShares{byPkg: map[string]int64{}} }

// share returns pkg's fraction of all sampled CPU.
func (c *cpuShares) share(pkg string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.byPkg[pkg]) / float64(c.total)
}

// add folds one gzipped CPU profile into c. A sample's time goes to the
// innermost function of its leaf location, inlined frames included, which
// is what `go tool pprof -top` calls flat time.
func (c *cpuShares) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		valueType []int64 // string index of each sample value's type
		samples   [][2][]uint64
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName  = map[uint64]int64{}  // function id -> string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					valueType = append(valueType, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s [2][]uint64
			err := fields(b, func(n int, v uint64, p []byte) error {
				if n == 1 || n == 2 {
					vals, err := repeated(v, p)
					s[n-1] = append(s[n-1], vals...)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			seenLine := false
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					if seenLine { // the first line record is the innermost frame
						return nil
					}
					seenLine = true
					return fields(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	cpuIdx := -1
	for i, t := range valueType {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return errors.New("profile: no cpu sample type")
	}
	for _, s := range samples {
		locs, vals := s[0], s[1]
		if len(locs) == 0 || cpuIdx >= len(vals) {
			continue
		}
		ns := int64(vals[cpuIdx])
		c.total += ns
		name := ""
		if si := funcName[locFunc[locs[0]]]; si >= 0 && int(si) < len(strs) {
			name = strs[si]
		}
		c.byPkg[packageOf(name)] += ns
	}
	return nil
}

// packageOf extracts the import path from a Go symbol name such as
// "cocoa/internal/bayes.(*Grid).ApplyBeacon" or
// "cocoa/internal/runner.Map[...].func1".
func packageOf(sym string) string {
	head := sym
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(head[slash+1:], ".")
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// fields walks the top-level fields of one protocol-buffer message,
// calling fn with the field number and either the varint value or the
// length-delimited payload. Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			p := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, p); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// repeated decodes a repeated varint field that arrived either unpacked
// (payload nil, one value v) or packed (payload holds the varints).
func repeated(v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(payload) > 0 {
		x, n := uvarint(payload)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, x)
		payload = payload[n:]
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		c := b[i]
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
