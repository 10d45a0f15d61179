// Package swap models swap space and the two swap media the paper
// evaluates: an SSD (millisecond-class block device with bounded queue
// depth and asynchronous writeback) and ZRAM (a compressed in-memory block
// device whose I/O is synchronous CPU work on the requesting thread).
//
// The asymmetry between the two is central to the paper's §V-D findings:
// with a slow medium, application threads spend long stretches blocked on
// faults, which gives the scanning threads time to make good decisions;
// with a fast medium the application outruns the scans and fault counts
// rise. Both behaviours emerge from these device models.
package swap

import (
	"fmt"

	"mglrusim/internal/sim"
	"mglrusim/internal/telemetry"
	"mglrusim/internal/zram"
)

// Slot identifies one page-sized unit of swap space.
type Slot = int32

// NilSlot means "no slot".
const NilSlot Slot = -1

// Area allocates swap slots.
type Area struct {
	free  []Slot
	alloc []bool // per-slot allocation state, guards Free
	cap   int
}

// NewArea creates an area with capacity slots.
func NewArea(capacity int) *Area {
	a := &Area{cap: capacity, free: make([]Slot, 0, capacity), alloc: make([]bool, capacity)}
	for i := capacity - 1; i >= 0; i-- {
		a.free = append(a.free, Slot(i))
	}
	return a
}

// Alloc returns a free slot, or NilSlot if the area is full.
func (a *Area) Alloc() Slot {
	if len(a.free) == 0 {
		return NilSlot
	}
	s := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.alloc[s] = true
	return s
}

// Free returns slot s to the area. An out-of-range or already-free slot
// would corrupt the free list (the same slot handed to two owners), so
// both panic instead of being silently accepted.
func (a *Area) Free(s Slot) {
	if s < 0 || int(s) >= a.cap {
		panic(fmt.Sprintf("swap: Free of out-of-range slot %d (capacity %d)", s, a.cap))
	}
	if !a.alloc[s] {
		panic(fmt.Sprintf("swap: double free of slot %d", s))
	}
	a.alloc[s] = false
	a.free = append(a.free, s)
}

// Allocated reports whether s is currently allocated. Out-of-range slots
// report false.
func (a *Area) Allocated(s Slot) bool {
	return s >= 0 && int(s) < a.cap && a.alloc[s]
}

// InUse reports allocated slots.
func (a *Area) InUse() int { return a.cap - len(a.free) }

// Capacity reports total slots.
func (a *Area) Capacity() int { return a.cap }

// Stats aggregates device activity.
type Stats struct {
	Reads, Writes         uint64
	ReadTime, WriteTime   sim.Duration // summed service time
	WriteStalls           uint64       // writers blocked on queue saturation
	CompressedBytes       int64        // zram only: bytes currently stored
	LifetimeCompressRatio float64      // zram only
}

// TracerSetter is implemented by devices (and wrappers) that accept a
// telemetry tracer for swap I/O spans. A nil tracer must be accepted and
// restore the untraced fast path.
type TracerSetter interface {
	SetTracer(tr *telemetry.Tracer)
}

// Device is a swap medium. ReadPage is the demand-fault path and always
// blocks the calling proc for the device's service time. WriteStep is the
// write, for reclaim and for the page cache's flusher; depending on the
// medium it may be asynchronous (SSD writeback) or synchronous CPU work
// (ZRAM compression).
//
// The three I/O methods report an error for an I/O that failed past any
// retry (only a fault-plane wrapper ever fails one); the caller decides
// whether that fails the trial or degrades. The media themselves always
// report nil.
type Device interface {
	Name() string
	ReadPage(v *sim.Env, slot Slot, vpn int64, version uint32) error
	// WriteStep is the write as a resumable step, for a proc running
	// suspended (sim.Env.Suspend). It runs the write w until the write
	// parks the proc, and then reports true; the caller calls it again
	// with the same w once the proc is continued. It reports false when
	// the write is over, with its error in w.Err.
	WriteStep(v *sim.Env, w *WriteWalk) (parked bool)
	// PrefetchPage reads slot as part of a readahead cluster anchored at
	// a blocking demand read: on a block device the transfer is amortized
	// into the cluster I/O, on ZRAM each page still pays decompression
	// CPU.
	PrefetchPage(v *sim.Env, slot Slot, vpn int64, version uint32) error
	// FreeSlot releases any backing resources for slot (zram pool space).
	FreeSlot(slot Slot)
	// Drain blocks until all in-flight asynchronous writes have completed.
	Drain(v *sim.Env)
	Stats() Stats
}

// WriteWalk is the cursor of a device's one write, Device.WriteStep. The
// caller sets Slot, VPN and Version and zeroes the rest; Err is the
// write's result. The other fields are the devices' own record of where
// the write stopped: At and Stall are the medium's, the rest a wrapping
// device's, which hands the same cursor on to the medium it wraps.
type WriteWalk struct {
	Slot    Slot
	VPN     int64
	Version uint32
	Err     error

	At    uint8          // the medium's next point
	Stall telemetry.Span // the medium's open writeback-stall span

	WrapAt  uint8        // the wrapper's next point
	Attempt int          // the wrapper's failed attempts so far
	Backoff sim.Duration // the wrapper's next retry backoff
	Backing bool         // the wrapper writes to its backing device
}

// SSDConfig parameterizes an SSD device.
type SSDConfig struct {
	// ReadLatency / WriteLatency are 4 KB service times.
	ReadLatency, WriteLatency sim.Duration
	// Jitter is log-normal sigma applied to each service time.
	Jitter float64
	// QueueDepth is the number of requests the device services in
	// parallel.
	QueueDepth int
	// MaxDirtyWrites caps in-flight asynchronous writebacks; reclaim
	// blocks once the cap is reached (writeback backpressure).
	MaxDirtyWrites int
}

// DefaultSSDConfig matches the paper's measured device: ~7.5 ms 4 KB
// reads and writes.
func DefaultSSDConfig() SSDConfig {
	return SSDConfig{
		ReadLatency:    7500 * sim.Microsecond,
		WriteLatency:   7500 * sim.Microsecond,
		Jitter:         0.35,
		QueueDepth:     10,
		MaxDirtyWrites: 48,
	}
}

// SSD is a block swap device with bounded parallelism.
type SSD struct {
	cfg     SSDConfig
	eng     *sim.Engine
	rng     *sim.RNG
	servers []sim.Time // busy-until, one per queue-depth channel
	inWrite int
	wcond   sim.Cond
	stats   Stats
	// completeWrite is writeDone as a callback, made once.
	completeWrite func()
	tr            *telemetry.Tracer
	trTrack       telemetry.TrackID // the device's own lane
}

// SetTracer implements TracerSetter: reads, writes, and writeback stalls
// become spans on an "ssd" track (service windows) and the stalled proc's
// own track.
func (d *SSD) SetTracer(tr *telemetry.Tracer) {
	d.tr = tr
	if tr != nil {
		d.trTrack = tr.Track("ssd")
	}
}

// NewSSD creates an SSD attached to eng with a dedicated RNG stream.
func NewSSD(cfg SSDConfig, eng *sim.Engine, rng *sim.RNG) *SSD {
	if cfg.QueueDepth <= 0 {
		panic("swap: SSD queue depth must be positive")
	}
	if cfg.MaxDirtyWrites <= 0 {
		cfg.MaxDirtyWrites = 1
	}
	d := &SSD{cfg: cfg, eng: eng, rng: rng, servers: make([]sim.Time, cfg.QueueDepth)}
	d.completeWrite = d.writeDone
	return d
}

// Name implements Device.
func (d *SSD) Name() string { return "ssd" }

// service books a request on the earliest-free channel and returns its
// completion time.
func (d *SSD) service(base sim.Duration) sim.Time {
	best := 0
	for i, t := range d.servers {
		if t < d.servers[best] {
			best = i
		}
	}
	start := d.eng.Now()
	if d.servers[best] > start {
		start = d.servers[best]
	}
	lat := base
	if d.cfg.Jitter > 0 {
		lat = sim.Duration(float64(lat) * d.rng.LogNormal(0, d.cfg.Jitter))
	}
	done := start + sim.Time(lat)
	d.servers[best] = done
	return done
}

// ReadPage implements Device: the calling proc blocks for the full queueing
// plus service time.
func (d *SSD) ReadPage(v *sim.Env, slot Slot, vpn int64, version uint32) error {
	done := d.service(d.cfg.ReadLatency)
	d.stats.Reads++
	d.stats.ReadTime += int64(done - v.Now())
	if d.tr != nil {
		d.tr.Emit(d.trTrack, "ssd-read", v.Now(), int64(done-v.Now()), int64(slot))
	}
	v.SleepUntil(done)
	return nil
}

// The points of an SSD write, in WriteWalk.At.
const (
	ssdStart = iota // open the stall span if the write has to wait
	ssdWait         // wait out the writeback window, then submit
)

// WriteStep implements Device: the write is submitted asynchronously, but
// the writer parks first if too many writebacks are already in flight —
// this is the reclaim backpressure that can stall eviction under thrash.
func (d *SSD) WriteStep(v *sim.Env, w *WriteWalk) (parked bool) {
	if w.At == ssdStart {
		if d.tr != nil && d.inWrite >= d.cfg.MaxDirtyWrites {
			w.Stall = d.tr.Begin(d.tr.Track(v.Proc().Name()), "writeback-stall")
		}
		w.At = ssdWait
	}
	if d.inWrite >= d.cfg.MaxDirtyWrites {
		d.stats.WriteStalls++
		v.TryWait(&d.wcond)
		return true
	}
	w.Stall.End()
	done := d.service(d.cfg.WriteLatency)
	d.inWrite++
	d.stats.Writes++
	d.stats.WriteTime += int64(done - v.Now())
	if d.tr != nil {
		d.tr.Emit(d.trTrack, "ssd-write", v.Now(), int64(done-v.Now()), int64(w.Slot))
	}
	d.eng.After(int64(done-v.Now()), d.completeWrite)
	w.Err = nil
	return false
}

// writeDone retires one in-flight write and wakes the writers waiting
// for the writeback window.
func (d *SSD) writeDone() {
	d.inWrite--
	d.wcond.Broadcast(d.eng)
}

// PrefetchPage implements Device: the page rides the cluster I/O of the
// anchoring demand read; only a small per-page completion cost applies.
func (d *SSD) PrefetchPage(v *sim.Env, slot Slot, vpn int64, version uint32) error {
	d.stats.Reads++
	v.Charge(20 * sim.Microsecond)
	return nil
}

// FreeSlot implements Device; SSD space needs no bookkeeping.
func (d *SSD) FreeSlot(slot Slot) {}

// Drain implements Device.
func (d *SSD) Drain(v *sim.Env) {
	for d.inWrite > 0 {
		v.Wait(&d.wcond)
	}
}

// Stats implements Device.
func (d *SSD) Stats() Stats { return d.stats }

// ZRAMConfig parameterizes a compressed in-memory swap device.
type ZRAMConfig struct {
	// ReadLatency / WriteLatency are the end-to-end 4 KB service times
	// (dominated by [de]compression), charged as CPU work on the
	// requesting thread.
	ReadLatency, WriteLatency sim.Duration
	// Jitter is log-normal sigma on each operation.
	Jitter float64
	// PageSize in bytes, for the compression pool.
	PageSize int
}

// DefaultZRAMConfig matches the paper's measurement: 20 µs reads, 35 µs
// writes with LZO-RLE.
func DefaultZRAMConfig() ZRAMConfig {
	return ZRAMConfig{
		ReadLatency:  20 * sim.Microsecond,
		WriteLatency: 35 * sim.Microsecond,
		Jitter:       0.10,
		PageSize:     4096,
	}
}

// ClassFn maps a virtual page to its synthetic content class, so different
// workloads exhibit different compression ratios.
type ClassFn func(vpn int64) zram.ContentClass

// ZRAM is a compressed in-memory swap device. All its I/O is synchronous
// CPU work: a fault-in decompresses on the faulting thread, an eviction
// compresses on the reclaiming thread. This is what couples swap speed to
// CPU contention for this medium.
type ZRAM struct {
	cfg   ZRAMConfig
	rng   *sim.RNG
	store *zram.Store
	class ClassFn
	stats Stats
	tr    *telemetry.Tracer
}

// SetTracer implements TracerSetter: [de]compression windows become spans
// on the requesting proc's track, since ZRAM I/O *is* CPU work there.
func (d *ZRAM) SetTracer(tr *telemetry.Tracer) { d.tr = tr }

// NewZRAM creates a ZRAM device. class may be nil, defaulting everything
// to structured content.
func NewZRAM(cfg ZRAMConfig, rng *sim.RNG, class ClassFn) *ZRAM {
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	if class == nil {
		class = func(int64) zram.ContentClass { return zram.ClassStructured }
	}
	return &ZRAM{cfg: cfg, rng: rng, store: zram.NewStore(cfg.PageSize), class: class}
}

// Name implements Device.
func (d *ZRAM) Name() string { return "zram" }

func (d *ZRAM) jittered(base sim.Duration) sim.Duration {
	if d.cfg.Jitter > 0 {
		base = sim.Duration(float64(base) * d.rng.LogNormal(0, d.cfg.Jitter))
	}
	if base < 1 {
		base = 1
	}
	return base
}

// ReadPage implements Device: decompression burns CPU on the caller.
func (d *ZRAM) ReadPage(v *sim.Env, slot Slot, vpn int64, version uint32) error {
	lat := d.jittered(d.cfg.ReadLatency)
	d.stats.Reads++
	d.stats.ReadTime += lat
	if d.tr != nil {
		d.tr.Emit(d.tr.Track(v.Proc().Name()), "zram-read", v.Now(), lat, int64(slot))
	}
	v.Charge(lat)
	return nil
}

// The points of a ZRAM write, in WriteWalk.At.
const (
	zramStart   = iota // compress and charge
	zramCharged        // the charge is over
)

// WriteStep implements Device: compression burns CPU on the writer and
// the compressed size is measured with the real compressor, run once per
// distinct page content per process (zram.Store memoizes sizes). The
// write parks if the charge does.
func (d *ZRAM) WriteStep(v *sim.Env, w *WriteWalk) (parked bool) {
	if w.At != zramStart {
		return false
	}
	lat := d.jittered(d.cfg.WriteLatency)
	d.stats.Writes++
	d.stats.WriteTime += lat
	d.store.Write(w.Slot, w.VPN, w.Version, d.class(w.VPN))
	if d.tr != nil {
		d.tr.Emit(d.tr.Track(v.Proc().Name()), "zram-write", v.Now(), lat, int64(w.Slot))
	}
	w.At = zramCharged
	w.Err = nil
	return !v.TryCharge(lat)
}

// PrefetchPage implements Device: ZRAM readahead still decompresses every
// page on the faulting CPU.
func (d *ZRAM) PrefetchPage(v *sim.Env, slot Slot, vpn int64, version uint32) error {
	return d.ReadPage(v, slot, vpn, version)
}

// FreeSlot implements Device.
func (d *ZRAM) FreeSlot(slot Slot) { d.store.Free(slot) }

// Drain implements Device; ZRAM writes are synchronous so it returns
// immediately.
func (d *ZRAM) Drain(v *sim.Env) {}

// Stats implements Device.
func (d *ZRAM) Stats() Stats {
	s := d.stats
	s.CompressedBytes = d.store.CompressedBytes()
	s.LifetimeCompressRatio = d.store.Ratio()
	return s
}

// Compile-time interface checks.
var (
	_ Device = (*SSD)(nil)
	_ Device = (*ZRAM)(nil)
)
