// Package zram provides the compression machinery behind the simulator's
// ZRAM swap device: a byte run-length compressor with literal passthrough
// (the zero-run fast path that the kernel's lzo-rle favours on zero-heavy
// anonymous pages; there is no LZ match stage), a deterministic synthetic
// page-content generator, and a compressed-pool accounting store.
//
// The compressor is functional — it round-trips real bytes — so the
// compressed-size accounting that drives ZRAM capacity behaviour is
// measured, not assumed. A page's compressed size is a pure function of
// its content identity, so each distinct content is compressed once per
// process and its size memoized (see Store).
package zram

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
)

// Compress encodes src with a byte-oriented RLE scheme:
//
//	token 0x00, count-1, value      -> run of count (4..259) repeated bytes
//	token 0x01, count-1, bytes...   -> literal run of count (1..256) bytes
//
// Runs shorter than 4 are folded into literals. The output is never more
// than src length + 2*(len/256+1) bytes.
func Compress(src []byte) []byte { return AppendCompress(nil, src) }

// AppendCompress appends the compressed encoding of src to dst and returns
// the extended slice, letting hot callers reuse one scratch buffer instead
// of allocating per page write.
func AppendCompress(dst, src []byte) []byte {
	out := dst
	if out == nil {
		out = make([]byte, 0, len(src)/4+16)
	}
	i := 0
	litStart := -1
	flushLits := func(end int) {
		for litStart >= 0 && litStart < end {
			n := end - litStart
			if n > 256 {
				n = 256
			}
			out = append(out, 0x01, byte(n-1))
			out = append(out, src[litStart:litStart+n]...)
			litStart += n
		}
		litStart = -1
	}
	for i < len(src) {
		// Measure run length at i.
		j := i + 1
		for j < len(src) && src[j] == src[i] && j-i < 259 {
			j++
		}
		if j-i >= 4 {
			flushLits(i)
			out = append(out, 0x00, byte(j-i-4), src[i])
			i = j
			continue
		}
		if litStart < 0 {
			litStart = i
		}
		i = j
	}
	flushLits(len(src))
	return out
}

// ErrCorrupt reports malformed compressed data.
var ErrCorrupt = errors.New("zram: corrupt compressed stream")

// Decompress decodes data produced by Compress into dst, which must be
// exactly the original length. It returns ErrCorrupt on malformed input.
func Decompress(data []byte, dst []byte) error {
	di := 0
	i := 0
	for i < len(data) {
		if i+1 >= len(data) {
			return ErrCorrupt
		}
		switch data[i] {
		case 0x00:
			if i+2 >= len(data) {
				return ErrCorrupt
			}
			n := int(data[i+1]) + 4
			v := data[i+2]
			if di+n > len(dst) {
				return ErrCorrupt
			}
			for k := 0; k < n; k++ {
				dst[di+k] = v
			}
			di += n
			i += 3
		case 0x01:
			n := int(data[i+1]) + 1
			if i+2+n > len(data) || di+n > len(dst) {
				return ErrCorrupt
			}
			copy(dst[di:di+n], data[i+2:i+2+n])
			di += n
			i += 2 + n
		default:
			return ErrCorrupt
		}
	}
	if di != len(dst) {
		return ErrCorrupt
	}
	return nil
}

// ContentClass describes how compressible a page's synthetic contents are.
type ContentClass uint8

const (
	// ClassZeroHeavy models freshly-touched anonymous memory: mostly
	// zero bytes with sparse data (compresses very well).
	ClassZeroHeavy ContentClass = iota
	// ClassStructured models columnar/graph data: repetitive small
	// records (compresses moderately).
	ClassStructured
	// ClassRandom models hashed or encrypted data (incompressible).
	ClassRandom
)

// FillPage deterministically generates a page's contents into buf from its
// identity (vpn), a dirty-version counter, and its content class. The same
// (vpn, version, class) always yields the same bytes, so swap-out and
// swap-in see consistent data without the simulator retaining page bodies.
func FillPage(buf []byte, vpn int64, version uint32, class ContentClass) {
	seed := uint64(vpn)*0x9e3779b97f4a7c15 ^ uint64(version)<<32 ^ uint64(class)
	switch class {
	case ClassZeroHeavy:
		for i := range buf {
			buf[i] = 0
		}
		// Sprinkle a few words of data so pages differ.
		x := seed
		for k := 0; k < len(buf)/64; k++ {
			x = x*6364136223846793005 + 1442695040888963407
			off := int(x % uint64(len(buf)-8))
			binary.LittleEndian.PutUint64(buf[off:], x)
		}
	case ClassStructured:
		// 16-byte records: 8-byte key varying slowly, 8 bytes of small
		// integers — long runs of shared high bytes.
		x := seed
		for off := 0; off+16 <= len(buf); off += 16 {
			binary.LittleEndian.PutUint64(buf[off:], seed>>16) // shared prefix
			x = x*6364136223846793005 + 1442695040888963407
			binary.LittleEndian.PutUint64(buf[off+8:], x%256)
		}
	default: // ClassRandom
		x := seed | 1
		for off := 0; off+8 <= len(buf); off += 8 {
			x = x*6364136223846793005 + 1442695040888963407
			binary.LittleEndian.PutUint64(buf[off:], x)
		}
	}
}

// Store is the compressed-pool accounting for a ZRAM device: per-slot
// compressed sizes and aggregate ratios. Page bodies are not retained —
// FillPage regenerates them — but sizes come from running the real
// compressor on the real bytes, once per distinct content per process:
// every Store shares one bounded size memo.
type Store struct {
	pageSize int
	// sizes is dense, indexed by slot: swap areas hand out slots from a
	// contiguous range starting at 0, and the fault path hits Write/Free
	// hard enough that map hashing showed up in profiles. 0 = unused (a
	// compressed page is never empty).
	sizes   []int32
	total   int64 // compressed bytes currently stored
	written int64 // uncompressed bytes ever written
	stored  int64 // compressed bytes ever written
	buf     []byte
	cbuf    []byte // reusable compression output scratch
}

// NewStore creates a Store for pages of pageSize bytes.
func NewStore(pageSize int) *Store {
	return &Store{pageSize: pageSize, buf: make([]byte, pageSize)}
}

// grow ensures the size table covers slot.
func (s *Store) grow(slot int32) {
	if int(slot) < len(s.sizes) {
		return
	}
	n := len(s.sizes)*2 + 64
	if n <= int(slot) {
		n = int(slot) + 1
	}
	sizes := make([]int32, n)
	copy(sizes, s.sizes)
	s.sizes = sizes
}

// Write stores the synthetic contents of (vpn, version, class) in slot
// and returns their compressed size in bytes. The compressor runs only
// when the process-wide memo does not hold the content's size.
func (s *Store) Write(slot int32, vpn int64, version uint32, class ContentClass) int {
	memo := sharedSizeMemo()
	key := sizeEntry{vpn: vpn, version: version, pageSize: int32(s.pageSize), class: class}
	n, ok := memo.lookup(key)
	if !ok {
		FillPage(s.buf, vpn, version, class)
		s.cbuf = AppendCompress(s.cbuf[:0], s.buf)
		n = int32(len(s.cbuf))
		memo.store(key, n)
	}
	s.grow(slot)
	s.total += int64(n - s.sizes[slot])
	s.sizes[slot] = n
	s.written += int64(s.pageSize)
	s.stored += int64(n)
	return int(n)
}

// Free releases slot's storage.
func (s *Store) Free(slot int32) {
	if int(slot) < len(s.sizes) {
		s.total -= int64(s.sizes[slot])
		s.sizes[slot] = 0
	}
}

// SlotSize reports the compressed size of slot, or 0 if unused.
func (s *Store) SlotSize(slot int32) int {
	if int(slot) >= len(s.sizes) {
		return 0
	}
	return int(s.sizes[slot])
}

// CompressedBytes reports the bytes currently held by the pool.
func (s *Store) CompressedBytes() int64 { return s.total }

// Ratio reports the lifetime compression ratio (uncompressed/compressed),
// or 0 before any write.
func (s *Store) Ratio() float64 {
	if s.stored == 0 {
		return 0
	}
	return float64(s.written) / float64(s.stored)
}

// The size memo is a direct-mapped table of 2^15 entries in 64
// lock-striped blocks: 64 × (8 + 512 × 24) bytes, 768 KiB, fixed whatever
// the workload. An entry holds a whole key, so a lookup hits only on the
// exact content; a colliding write overwrites. Sizes are a pure function
// of the key, so what the memo holds never changes a result. 2^16 entries
// saved 4,400 more of the figure matrix's 154,000 compressions (about 60 ms
// of CPU) but raised its peak RSS by up to 3.6 MiB, GC headroom included.
const (
	memoBits       = 15
	memoStripeBits = 9 // 512 entries per lock
)

// sizeEntry is one memo entry: a content key and its compressed size.
// pageSize is an int32 like the sizes a Store keeps. The zero entry is the
// empty page's, with its true size 0, so an unused entry needs no flag.
type sizeEntry struct {
	vpn      int64
	version  uint32
	pageSize int32
	class    ContentClass
	size     int32
}

type sizeMemo [1 << (memoBits - memoStripeBits)]struct {
	mu      sync.Mutex
	entries [1 << memoStripeBits]sizeEntry
}

// sizeMemoTable is the process's memo, allocated by the first Store.Write
// so that a process that never writes a ZRAM page never pays for it.
var sizeMemoTable atomic.Pointer[sizeMemo]

func sharedSizeMemo() *sizeMemo {
	if m := sizeMemoTable.Load(); m != nil {
		return m
	}
	sizeMemoTable.CompareAndSwap(nil, new(sizeMemo))
	return sizeMemoTable.Load()
}

// entry returns the memo entry key maps to, with its stripe's lock.
func (m *sizeMemo) entry(key sizeEntry) (*sync.Mutex, *sizeEntry) {
	// Combine the fields, then avalanche them (murmur3's fmix64) so that
	// every field moves the top memoBits bits the index takes.
	h := uint64(key.vpn)*0x9e3779b97f4a7c15 +
		(uint64(key.version)<<32|uint64(uint32(key.pageSize)))*0xbf58476d1ce4e5b9 +
		uint64(key.class)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	i := h >> (64 - memoBits)
	st := &m[i>>memoStripeBits]
	return &st.mu, &st.entries[i&(1<<memoStripeBits-1)]
}

func (m *sizeMemo) lookup(key sizeEntry) (int32, bool) {
	mu, e := m.entry(key)
	mu.Lock()
	got := *e
	mu.Unlock()
	size := got.size
	got.size = 0
	return size, got == key
}

func (m *sizeMemo) store(key sizeEntry, size int32) {
	mu, e := m.entry(key)
	key.size = size
	mu.Lock()
	*e = key
	mu.Unlock()
}
