package main

import (
	"math"

	"mglrusim/internal/core"
	"mglrusim/internal/fault"
	"mglrusim/internal/pagecache"
	"mglrusim/internal/policy"
	"mglrusim/internal/swap"
	"mglrusim/internal/vmm"
)

// trialCounts is the part of one trial's core.Metrics the report sums.
// Its field names are core.Metrics' and the checkpoint envelope's, so the
// sweep server's result artifacts decode straight into it.
type trialCounts struct {
	Counters     vmm.Counters
	Policy       policy.Stats
	Device       swap.Stats
	FileCache    pagecache.Stats
	Injected     fault.Stats
	FileInjected fault.Stats
}

func countsOf(m core.Metrics) trialCounts {
	return trialCounts{m.Counters, m.Policy, m.Device, m.FileCache, m.Injected, m.FileInjected}
}

// tally sums trialCounts over every trial of a pass. Every field is an
// exact integer, so two passes over the same inputs compare with ==, in
// any order the trials finished: a change that only speeds up the
// simulator must leave the tally unchanged.
type tally struct {
	trials uint64

	accesses, majorFaults, minorFaults, directReclaims, kswapdBursts     uint64
	readaheadIn, readaheadHits, readaheadWaste, fileFaults, fileAccesses uint64

	pteScanned, rmapWalks, evicted, rotated, refaults uint64
	regionsScanned, regionsSkipped                    uint64

	swapReads, swapWrites, writeStalls uint64
	compressedBytes                    int64
	// zramRatioMilli sums each ZRAM trial's lifetime compression ratio in
	// thousandths, keeping the sum an exact integer.
	zramRatioMilli, zramTrials uint64

	fileRefaults, flusherPages, sigbus uint64
	injectedReadErrors, injectedWrites uint64
}

func (t *tally) add(c trialCounts) {
	t.trials++
	v := c.Counters
	t.accesses += v.Accesses
	t.majorFaults += v.MajorFaults
	t.minorFaults += v.MinorFaults
	t.directReclaims += v.DirectReclaims
	t.kswapdBursts += v.KswapdBursts
	t.readaheadIn += v.ReadaheadIn
	t.readaheadHits += v.ReadaheadHits
	t.readaheadWaste += v.ReadaheadWaste
	t.fileFaults += v.FileFaults
	t.fileAccesses += v.FileAccesses

	p := c.Policy
	t.pteScanned += p.PTEScanned
	t.rmapWalks += p.RMapWalks
	t.evicted += p.Evicted
	t.rotated += p.Rotated
	t.refaults += p.Refaults
	t.regionsScanned += p.RegionsScanned
	t.regionsSkipped += p.RegionsSkipped

	d := c.Device
	t.swapReads += d.Reads
	t.swapWrites += d.Writes
	t.writeStalls += d.WriteStalls
	t.compressedBytes += d.CompressedBytes
	if d.LifetimeCompressRatio > 0 {
		t.zramRatioMilli += uint64(math.Round(d.LifetimeCompressRatio * 1000))
		t.zramTrials++
	}

	f := c.FileCache
	t.fileRefaults += f.Refaults
	t.flusherPages += f.WritebackPages
	t.sigbus += f.FileIOErrors + f.PoisonedFaults

	t.injectedReadErrors += c.Injected.TransientReadErrors + c.FileInjected.TransientReadErrors
	t.injectedWrites += c.Injected.TransientWriteErrors + c.FileInjected.TransientWriteErrors
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// countMetrics are the per-layer counts of one pass.
func (t tally) countMetrics() []metricValue {
	f := func(v uint64) float64 { return float64(v) }
	return []metricValue{
		{"vmm.accesses", "count", f(t.accesses)},
		{"vmm.major_faults", "count", f(t.majorFaults)},
		{"vmm.minor_faults", "count", f(t.minorFaults)},
		{"vmm.direct_reclaims", "count", f(t.directReclaims)},
		{"vmm.kswapd_bursts", "count", f(t.kswapdBursts)},
		{"vmm.readahead_hit_ratio", "ratio", ratio(f(t.readaheadHits), f(t.readaheadIn))},
		{"vmm.readahead_waste_ratio", "ratio", ratio(f(t.readaheadWaste), f(t.readaheadIn))},
		{"policy.pte_scanned", "count", f(t.pteScanned)},
		{"policy.rmap_walks", "count", f(t.rmapWalks)},
		{"policy.evicted", "count", f(t.evicted)},
		{"policy.rotated", "count", f(t.rotated)},
		{"policy.refaults", "count", f(t.refaults)},
		{"policy.region_skip_ratio", "ratio", ratio(f(t.regionsSkipped), f(t.regionsScanned+t.regionsSkipped))},
		{"policy.evict_per_candidate", "ratio", ratio(f(t.evicted), f(t.evicted+t.rotated))},
		{"swap.reads", "count", f(t.swapReads)},
		{"swap.writes", "count", f(t.swapWrites)},
		{"swap.write_stalls", "count", f(t.writeStalls)},
		{"zram.compressed_bytes", "bytes", float64(t.compressedBytes)},
		{"zram.compression_ratio", "ratio", ratio(f(t.zramRatioMilli)/1000, f(t.zramTrials))},
		{"pagecache.hit_ratio", "ratio", ratio(f(t.fileAccesses), f(t.fileAccesses+t.fileFaults))},
		{"pagecache.refaults", "count", f(t.fileRefaults)},
		{"pagecache.flusher_pages", "count", f(t.flusherPages)},
		{"pagecache.sigbus", "count", f(t.sigbus)},
		{"fault.injected_read_errors", "count", f(t.injectedReadErrors)},
		{"fault.injected_write_errors", "count", f(t.injectedWrites)},
	}
}
