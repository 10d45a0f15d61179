package mem

// Arena is a chunked, lazily materialized array of T: a fixed logical
// length whose backing storage is allocated one chunk at a time, on first
// write access. Per-page metadata tables (shadow entries, content
// versions, fault counts) are indexed by virtual page number over the
// whole address-space span — holes included — so at full scale a dense
// slice would charge O(pages) allocation for state that is overwhelmingly
// never touched. An Arena charges O(chunks actually written).
//
// Chunks never move once materialized, so pointers returned by At stay
// valid for the Arena's lifetime, matching the aliasing guarantees the
// dense slices used to give.
type Arena[T any] struct {
	chunks [][]T
	n      int
	shift  uint
	mask   int
	def    T
	hasDef bool
	live   int // materialized chunks, for footprint accounting
}

// NewArena creates an arena of n elements in chunks of chunkSize (a power
// of two). Elements read as the zero value of T until written.
func NewArena[T any](n, chunkSize int) *Arena[T] {
	if n < 0 {
		panic("mem: arena length must be non-negative")
	}
	if chunkSize <= 0 || chunkSize&(chunkSize-1) != 0 {
		panic("mem: arena chunk size must be a positive power of two")
	}
	shift := uint(0)
	for 1<<shift < chunkSize {
		shift++
	}
	nchunks := (n + chunkSize - 1) / chunkSize
	return &Arena[T]{
		chunks: make([][]T, nchunks),
		n:      n,
		shift:  shift,
		mask:   chunkSize - 1,
	}
}

// SetDefault makes absent elements read as def instead of the zero value;
// newly materialized chunks are filled with it. Must be called before any
// chunk materializes.
func (a *Arena[T]) SetDefault(def T) {
	if a.live > 0 {
		panic("mem: arena default set after materialization")
	}
	a.def = def
	a.hasDef = true
}

// Len reports the logical length.
func (a *Arena[T]) Len() int { return a.n }

// LiveChunks reports how many chunks have been materialized.
func (a *Arena[T]) LiveChunks() int { return a.live }

func (a *Arena[T]) materialize(c int) []T {
	ch := make([]T, a.mask+1)
	if a.hasDef {
		for i := range ch {
			ch[i] = a.def
		}
	}
	a.chunks[c] = ch
	a.live++
	return ch
}

// At returns a pointer to element i, materializing its chunk if needed.
// The pointer stays valid for the Arena's lifetime.
func (a *Arena[T]) At(i int) *T {
	if i < 0 || i >= a.n {
		panic("mem: arena index out of range")
	}
	c := i >> a.shift
	ch := a.chunks[c]
	if ch == nil {
		ch = a.materialize(c)
	}
	return &ch[i&a.mask]
}

// Peek returns element i by value without materializing anything: absent
// elements read as the default (or zero) value.
func (a *Arena[T]) Peek(i int) T {
	if i < 0 || i >= a.n {
		panic("mem: arena index out of range")
	}
	if ch := a.chunks[i>>a.shift]; ch != nil {
		return ch[i&a.mask]
	}
	return a.def
}
