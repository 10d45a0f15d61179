package zram

import (
	"sync"
	"testing"
	"unsafe"
)

// sizeKey names one page content: what FillPage generates and Store.Write
// reports the compressed size of.
type sizeKey struct {
	pageSize int
	vpn      int64
	version  uint32
	class    ContentClass
}

// compressedLen is the reference every size Store.Write reports must
// equal: the real compressor run on freshly generated contents.
func compressedLen(k sizeKey) int {
	buf := make([]byte, k.pageSize)
	FillPage(buf, k.vpn, k.version, k.class)
	return len(AppendCompress(nil, buf))
}

// sizeKeys returns the differential test's key set with its reference
// sizes:
//   - 4 KiB pages: 1,000 vpns (negative and far ones included) × 2
//     versions × the three content classes;
//   - 64-byte pages: 25,000 vpns × the three classes. These 75,000 keys
//     are more than a memo of 2^16 entries or fewer holds, so some must
//     share an entry, and rewriting them all writes keys evicted since
//     their last write.
func sizeKeys() ([]sizeKey, []int) {
	var keys []sizeKey
	for _, class := range []ContentClass{ClassZeroHeavy, ClassStructured, ClassRandom} {
		for i := int64(0); i < 1000; i++ {
			for version := uint32(0); version < 2; version++ {
				keys = append(keys, sizeKey{4096, i*40503 - 1<<20, version, class})
			}
		}
		for i := int64(0); i < 25000; i++ {
			keys = append(keys, sizeKey{64, i, 0, class})
		}
	}
	want := make([]int, len(keys))
	for i, k := range keys {
		want[i] = compressedLen(k)
	}
	return keys, want
}

// writeAll writes every key through stores (one per page size), starting
// at keys[start], and reports each size that differs from the reference.
func writeAll(report func(format string, args ...any), keys []sizeKey, want []int, start int) {
	stores := map[int]*Store{}
	for j := range keys {
		i := (start + j) % len(keys)
		k := keys[i]
		s := stores[k.pageSize]
		if s == nil {
			s = NewStore(k.pageSize)
			stores[k.pageSize] = s
		}
		slot := int32(j % 512)
		if got := s.Write(slot, k.vpn, k.version, k.class); got != want[i] || s.SlotSize(slot) != want[i] {
			report("%+v: Write = %d, SlotSize = %d, compressor = %d", k, got, s.SlotSize(slot), want[i])
			return
		}
	}
}

// TestSizeMemoMatchesCompress checks Store.Write's sizes against the
// compressor: first and repeated writes of every content class, contents
// that share a memo entry, contents rewritten after eviction, and several
// goroutines with their own Stores writing the same contents at once.
func TestSizeMemoMatchesCompress(t *testing.T) {
	keys, want := sizeKeys()
	for pass := 0; pass < 2; pass++ {
		writeAll(t.Fatalf, keys, want, 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			writeAll(t.Errorf, keys, want, start)
		}(g * len(keys) / 4)
	}
	wg.Wait()
}

// FuzzSizeMemo checks that a content's size is the compressor's on its
// first write and on a repeated one. Class values past ClassRandom are
// valid: FillPage treats them as random contents with their own seed.
func FuzzSizeMemo(f *testing.F) {
	f.Add(int64(0), uint32(0), uint8(ClassZeroHeavy))
	f.Add(int64(1)<<40, uint32(7), uint8(ClassStructured))
	f.Add(int64(-1), uint32(1)<<31, uint8(ClassRandom))
	f.Add(int64(12345), uint32(3), uint8(200))
	f.Fuzz(func(t *testing.T, vpn int64, version uint32, class uint8) {
		k := sizeKey{4096, vpn, version, ContentClass(class)}
		want := compressedLen(k)
		s := NewStore(k.pageSize)
		for slot := int32(0); slot < 2; slot++ {
			if got := s.Write(slot, k.vpn, k.version, k.class); got != want {
				t.Fatalf("%+v write %d: Write = %d, compressor = %d", k, slot, got, want)
			}
		}
	})
}

// TestSizeMemoIsLazy checks that only a Store's first Write allocates the
// memo, so processes that never swap to ZRAM do not carry it, and that
// its footprint stays within 1 MiB.
func TestSizeMemoIsLazy(t *testing.T) {
	sizeMemoTable.Store(nil)
	s := NewStore(4096)
	if sizeMemoTable.Load() != nil {
		t.Fatal("NewStore allocated the size memo")
	}
	s.Write(0, 1, 0, ClassStructured)
	if sizeMemoTable.Load() == nil {
		t.Fatal("Write did not allocate the size memo")
	}
	if n := unsafe.Sizeof(sizeMemo{}); n > 1<<20 {
		t.Fatalf("size memo is %d bytes, want at most 1 MiB", n)
	}
}

// TestSizeMemoCollisions writes pairs of contents that share one memo
// entry, differ in a single key field and compress to different sizes,
// alternately, so each write finds the other's size in the entry: neither
// may ever be served it.
func TestSizeMemoCollisions(t *testing.T) {
	m := sharedSizeMemo()
	entry := func(k sizeKey) *sizeEntry {
		_, e := m.entry(sizeEntry{vpn: k.vpn, version: k.version, pageSize: int32(k.pageSize), class: k.class})
		return e
	}
	vary := map[string]func(k sizeKey, j int) sizeKey{
		"version":  func(k sizeKey, j int) sizeKey { k.version = uint32(j); return k },
		"class":    func(k sizeKey, j int) sizeKey { k.class = ContentClass(j); return k },
		"pageSize": func(k sizeKey, j int) sizeKey { k.pageSize = 64 * (j + 1); return k },
		"vpn":      func(k sizeKey, j int) sizeKey { k.vpn = -int64(j); return k },
	}
	for field, vary := range vary {
		// Zero-heavy sizes vary with the content; the other classes'
		// barely do.
		a, b, found := func() (sizeKey, sizeKey, bool) {
			for i := int64(1); i < 1<<16; i++ {
				a := sizeKey{4096, i, 1, ClassZeroHeavy}
				for j := 0; j < 256; j++ {
					b := vary(a, j)
					if b != a && entry(a) == entry(b) && compressedLen(a) != compressedLen(b) {
						return a, b, true
					}
				}
			}
			return sizeKey{}, sizeKey{}, false
		}()
		if !found {
			t.Fatalf("no %s collision found", field)
		}
		for _, k := range []sizeKey{a, b, a, b} {
			if got, want := NewStore(k.pageSize).Write(0, k.vpn, k.version, k.class), compressedLen(k); got != want {
				t.Errorf("%s collision %+v / %+v: Write(%+v) = %d, compressor = %d", field, a, b, k, got, want)
			}
		}
	}
}
