package main

import (
	"compress/gzip"
	"fmt"
	"io"
)

// profile is the part of a pprof profile.proto the layer report reads:
// samples with their stacks and labels, resolved to function names.
type profile struct {
	// sampleTypes names each entry of sample.values ("samples", "cpu").
	sampleTypes []string
	samples     []sample
	// locations maps a location id to its function ids, leaf-most
	// (innermost inlined) first.
	locations map[uint64][]uint64
	functions map[uint64]string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
	labels    map[string]string
}

// decodeProfile parses the gzip-compressed profile.proto that runtime/pprof
// writes. Only the fields the layer report needs are kept; the rest are
// skipped by wire type.
func decodeProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	// Records refer to strings by index into a table that may follow them,
	// so indices are kept until the whole message has been read.
	type rawSample struct {
		locations []uint64
		values    []int64
		labels    [][2]uint64 // key, value
	}
	var (
		strs     []string
		typeIdx  []uint64
		rawSamps []rawSample
		funcIdx  = map[uint64]uint64{}
		p        = &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	)
	top := &pbuf{b: raw}
	top.walk(func(m *pbuf, num uint64, typ int) {
		switch {
		case num == 1 && typ == wireBytes: // sample_type: ValueType{type=1}
			m.message(func(vt *pbuf, n uint64, t int) {
				if n == 1 && t == wireVarint {
					typeIdx = append(typeIdx, vt.varint())
				} else {
					vt.skip(t)
				}
			})
		case num == 2 && typ == wireBytes: // sample
			var s rawSample
			m.message(func(sb *pbuf, n uint64, t int) {
				switch n {
				case 1: // location_id
					s.locations = append(s.locations, sb.repeated(t)...)
				case 2: // value
					for _, v := range sb.repeated(t) {
						s.values = append(s.values, int64(v))
					}
				case 3: // label: Label{key=1, str=2}
					var kv [2]uint64
					sb.message(func(lb *pbuf, ln uint64, lt int) {
						if (ln == 1 || ln == 2) && lt == wireVarint {
							kv[ln-1] = lb.varint()
						} else {
							lb.skip(lt)
						}
					})
					s.labels = append(s.labels, kv)
				default:
					sb.skip(t)
				}
			})
			rawSamps = append(rawSamps, s)
		case num == 4 && typ == wireBytes: // location: Location{id=1, line=4}
			var id uint64
			var fns []uint64
			m.message(func(lb *pbuf, n uint64, t int) {
				switch {
				case n == 1 && t == wireVarint:
					id = lb.varint()
				case n == 4 && t == wireBytes: // Line{function_id=1}
					lb.message(func(line *pbuf, ln uint64, lt int) {
						if ln == 1 && lt == wireVarint {
							fns = append(fns, line.varint())
						} else {
							line.skip(lt)
						}
					})
				default:
					lb.skip(t)
				}
			})
			p.locations[id] = fns
		case num == 5 && typ == wireBytes: // function: Function{id=1, name=2}
			var id, name uint64
			m.message(func(fb *pbuf, n uint64, t int) {
				switch {
				case n == 1 && t == wireVarint:
					id = fb.varint()
				case n == 2 && t == wireVarint:
					name = fb.varint()
				default:
					fb.skip(t)
				}
			})
			funcIdx[id] = name
		case num == 6 && typ == wireBytes: // string_table
			strs = append(strs, string(m.bytes()))
		default:
			m.skip(typ)
		}
	})
	if top.err != nil {
		return nil, fmt.Errorf("profile: %w", top.err)
	}

	var badIdx error
	str := func(i uint64) string {
		if i >= uint64(len(strs)) {
			badIdx = fmt.Errorf("profile: string index %d out of range (%d strings)", i, len(strs))
			return ""
		}
		return strs[i]
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for id, i := range funcIdx {
		p.functions[id] = str(i)
	}
	for _, rs := range rawSamps {
		s := sample{locations: rs.locations, values: rs.values}
		for _, kv := range rs.labels {
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[str(kv[0])] = str(kv[1])
		}
		p.samples = append(p.samples, s)
	}
	if badIdx != nil {
		return nil, badIdx
	}
	return p, nil
}

// valueIndex returns the position of the named sample type in every
// sample's values, or -1.
func (p *profile) valueIndex(name string) int {
	for i, t := range p.sampleTypes {
		if t == name {
			return i
		}
	}
	return -1
}

// frames resolves a sample's stack to function names, leaf first, with
// inlined frames expanded in place.
func (p *profile) frames(s sample) []string {
	var out []string
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			out = append(out, p.functions[fn])
		}
	}
	return out
}

// Protocol-buffer wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// pbuf reads one protocol-buffer message. The first malformed field sets
// err and empties the buffer, which ends every walk over it.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) done() bool { return len(p.b) == 0 }

func (p *pbuf) fail(err error) {
	if p.err == nil {
		p.err = err
	}
	p.b = nil
}

// walk calls fn for every field; fn must consume the field's value.
func (p *pbuf) walk(fn func(m *pbuf, num uint64, typ int)) {
	for !p.done() {
		k := p.varint()
		if p.err != nil {
			return
		}
		fn(p, k>>3, int(k&7))
	}
}

// message reads a length-delimited field as a nested message and walks it.
func (p *pbuf) message(fn func(m *pbuf, num uint64, typ int)) {
	m := &pbuf{b: p.bytes()}
	m.walk(fn)
	if m.err != nil {
		p.fail(m.err)
	}
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.fail(fmt.Errorf("truncated varint"))
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.fail(fmt.Errorf("varint overflows 64 bits"))
	return 0
}

func (p *pbuf) bytes() []byte {
	n := p.varint()
	if n > uint64(len(p.b)) {
		p.fail(fmt.Errorf("field length %d exceeds remaining %d bytes", n, len(p.b)))
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

func (p *pbuf) skip(typ int) {
	switch typ {
	case wireVarint:
		p.varint()
	case wireFixed64:
		p.advance(8)
	case wireBytes:
		p.bytes()
	case wireFixed32:
		p.advance(4)
	default:
		p.fail(fmt.Errorf("unsupported wire type %d", typ))
	}
}

func (p *pbuf) advance(n int) {
	if n > len(p.b) {
		p.fail(fmt.Errorf("truncated fixed-width field"))
		return
	}
	p.b = p.b[n:]
}

// repeated reads one occurrence of a repeated integer field, packed or not.
func (p *pbuf) repeated(typ int) []uint64 {
	switch typ {
	case wireVarint:
		return []uint64{p.varint()}
	case wireBytes:
		packed := &pbuf{b: p.bytes()}
		var out []uint64
		for !packed.done() {
			out = append(out, packed.varint())
		}
		if packed.err != nil {
			p.fail(packed.err)
		}
		return out
	}
	p.skip(typ)
	return nil
}
