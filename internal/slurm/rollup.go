package slurm

import (
	"sort"
	"time"

	"ooddash/internal/efficiency/effmath"
)

// Incremental time-series rollups: the accounting daemon maintains
// pre-aggregated usage buckets as jobs complete, so historical queries cost
// O(buckets returned) instead of O(jobs recorded). Three resolutions cascade
// on the shared sim clock — minutes fold into hours, hours into days — and
// each level keeps a bounded retention window, so memory stays flat while
// history grows without limit (the Keck pre-aggregation move, ROADMAP item 5).
//
// Aggregates are pure int64 sums (durations in whole seconds, efficiency
// percentages in fixed-point micro-percent), which makes folding
// order-independent and exact: a bucket assembled minute-by-minute equals the
// same bucket recomputed from raw rows in one pass, bit for bit. Floats
// appear only when a response builder divides the sums — and both the rollup
// path and the raw-recompute ablation share that builder, which is what the
// golden equivalence test pins.

// Rollup resolutions, in seconds. Buckets are half-open [start, start+res)
// aligned to multiples of the resolution in UTC.
const (
	RollupMinute int64 = 60
	RollupHour   int64 = 3600
	RollupDay    int64 = 86400
)

// Retention per resolution: how far behind the newest activity each level
// keeps buckets. Minutes serve short interactive windows, hours the weekly/
// monthly views, days the multi-year ones.
const (
	RollupMinuteRetention int64 = 48 * 3600        // 48 hours of minutes
	RollupHourRetention   int64 = 60 * 86400       // 60 days of hours
	RollupDayRetention    int64 = 10 * 366 * 86400 // ~10 years of days
)

// Rollup dimension scopes. "total" has a single unnamed series; the others
// carry one series per distinct user/account/partition.
const (
	RollupScopeTotal     = "total"
	RollupScopeUser      = "user"
	RollupScopeAccount   = "account"
	RollupScopePartition = "partition"
)

// RollupScopes lists the valid scope names.
var RollupScopes = []string{RollupScopeTotal, RollupScopeUser, RollupScopeAccount, RollupScopePartition}

// RollupAgg is one bucket's aggregate for one dimension value. Every field
// is an exact integer sum so folding is associative and order-independent;
// consumers derive hours and mean percentages at render time.
type RollupAgg struct {
	Jobs      int64 // terminal jobs whose end time fell in the bucket
	Completed int64 // of those, COMPLETED
	Failed    int64 // of those, FAILED / NODE_FAIL / OUT_OF_MEMORY / TIMEOUT
	Started   int64 // of those, jobs that actually ran (have a start time)
	WallSec   int64 // wall-clock seconds consumed (suspension excluded)
	CPUSec    int64 // CPU core-seconds consumed
	GPUSec    int64 // GPU-seconds allocated (wall seconds x GPUs)
	WaitSec   int64 // queue-wait seconds (start - submit, started jobs only)
	// Efficiency sums in micro-percent with per-metric sample counts, so a
	// metric that was NotApplicable for some jobs does not drag the mean.
	TimeEffMicro int64
	TimeEffN     int64
	CPUEffMicro  int64
	CPUEffN      int64
	MemEffMicro  int64
	MemEffN      int64
	GPUEffMicro  int64
	GPUEffN      int64
}

// Add folds another aggregate into a.
func (a *RollupAgg) Add(b *RollupAgg) {
	a.Jobs += b.Jobs
	a.Completed += b.Completed
	a.Failed += b.Failed
	a.Started += b.Started
	a.WallSec += b.WallSec
	a.CPUSec += b.CPUSec
	a.GPUSec += b.GPUSec
	a.WaitSec += b.WaitSec
	a.TimeEffMicro += b.TimeEffMicro
	a.TimeEffN += b.TimeEffN
	a.CPUEffMicro += b.CPUEffMicro
	a.CPUEffN += b.CPUEffN
	a.MemEffMicro += b.MemEffMicro
	a.MemEffN += b.MemEffN
	a.GPUEffMicro += b.GPUEffMicro
	a.GPUEffN += b.GPUEffN
}

// IsZero reports whether the aggregate carries no jobs.
func (a *RollupAgg) IsZero() bool { return a.Jobs == 0 }

// AddSample folds one terminal job's scalar record into the aggregate. It is
// the single fold implementation: the daemon's ingest path feeds it values
// derived from the live Job, and the raw-recompute ablation feeds it the
// identical values parsed back off the accounting wire — whole seconds, MB,
// counts, and the one-decimal GPU percentage — so both paths produce
// bit-identical sums. The efficiency gates mirror efficiency.Compute exactly.
func (a *RollupAgg) AddSample(state JobState, started bool,
	elapsedSec, limitSec, cpuSec, waitSec int64, cpus, gpus int,
	maxRSSMB, reqMemMB int64, gpuUtilPct float64) {
	a.Jobs++
	switch state {
	case StateCompleted:
		a.Completed++
	case StateFailed, StateNodeFail, StateOutOfMemory, StateTimeout:
		a.Failed++
	}
	if !started {
		return
	}
	a.Started++
	a.WaitSec += waitSec
	a.WallSec += elapsedSec
	a.CPUSec += cpuSec
	a.GPUSec += elapsedSec * int64(gpus)
	if elapsedSec <= 0 {
		return
	}
	if v := effmath.Time(elapsedSec, limitSec); v >= 0 {
		a.TimeEffMicro += effmath.Micro(v)
		a.TimeEffN++
	}
	if v := effmath.CPU(cpuSec, elapsedSec, cpus); v >= 0 {
		a.CPUEffMicro += effmath.Micro(v)
		a.CPUEffN++
	}
	if v := effmath.Mem(maxRSSMB, reqMemMB); v >= 0 {
		a.MemEffMicro += effmath.Micro(v)
		a.MemEffN++
	}
	if gpus > 0 && gpuUtilPct >= 0 {
		a.GPUEffMicro += effmath.Micro(gpuUtilPct)
		a.GPUEffN++
	}
}

// RollupRow is one (bucket, dimension) cell of a rollup query result.
type RollupRow struct {
	BucketStart int64 // unix seconds, aligned to the resolution
	Scope       string
	Name        string // "" for the total scope
	RollupAgg
}

// RollupStats is a snapshot of the rollup store for observability.
type RollupStats struct {
	MinuteBuckets int
	HourBuckets   int
	DayBuckets    int
	// Compaction counters: hours sealed from minutes, days sealed from hours.
	CompactionsHour int64
	CompactionsDay  int64
	Ingested        int64 // terminal jobs folded in
	LateDirect      int64 // ingests that wrote directly into sealed buckets
	EvictedBuckets  int64 // time buckets dropped past retention
}

// rollupDim is one dimension series key.
type rollupDim struct {
	scope string
	name  string
}

// rollupStore holds the three bucket levels. It has no lock of its own: the
// owning DBD's mutex guards every access, which keeps lock ordering trivial
// (ingest runs inside recordJob's critical section).
type rollupStore struct {
	// levels[0]=minutes, [1]=hours, [2]=days; each maps bucket start to the
	// per-dimension aggregates present in that bucket (sparse).
	levels [3]map[int64]map[rollupDim]*RollupAgg
	// bounds tracks each dimension's [earliest, latest] terminal end time,
	// for anchoring "all history" queries without scanning raw records.
	bounds map[rollupDim][2]int64

	// Sealing watermarks: every hour bucket starting before sealedHour has
	// been folded from its minutes (or only ever received direct writes);
	// likewise days before sealedDay. Buckets at or past a watermark are
	// served by folding the finer level on the fly.
	sealedHour  int64
	sealedDay   int64
	initialized bool
	maxSeen     int64 // newest end time ingested; drives retention skips

	ingested       int64
	lateDirect     int64
	evictedBuckets int64
	compactHour    int64
	compactDay     int64
}

func newRollupStore() rollupStore {
	var s rollupStore
	for i := range s.levels {
		s.levels[i] = make(map[int64]map[rollupDim]*RollupAgg)
	}
	s.bounds = make(map[rollupDim][2]int64)
	return s
}

// rollupFloor aligns sec down to a multiple of res.
func rollupFloor(sec, res int64) int64 {
	f := sec - sec%res
	if sec < 0 && sec%res != 0 {
		f -= res
	}
	return f
}

// jobSample extracts the fold inputs from a terminal job, truncating exactly
// the way the accounting wire does (whole seconds, one-decimal GPU percent)
// so rollup sums match a recompute from wire rows bit for bit.
func jobSample(j *Job) (state JobState, started bool,
	elapsedSec, limitSec, cpuSec, waitSec int64, cpus, gpus int,
	maxRSSMB, reqMemMB int64, gpuUtilPct float64) {
	state = j.State
	started = !j.StartTime.IsZero()
	end := j.EndTime
	elapsedSec = int64(j.Elapsed(end) / time.Second)
	limitSec = int64(j.TimeLimit / time.Second)
	cpuSec = int64(j.CPUTimeUsed(end) / time.Second)
	if started {
		waitSec = j.StartTime.Unix() - j.SubmitTime.Unix()
		maxRSSMB = j.MaxRSSMB()
	}
	cpus = j.AllocTRES.CPUs
	gpus = j.AllocTRES.GPUs
	gpuUtilPct = effmath.NotApplicable
	if gpus > 0 && started {
		gpuUtilPct = effmath.GPUPercent(j.Profile.GPUUtilization)
	}
	reqMemMB = j.ReqTRES.MemMB
	return
}

// ingest folds one newly terminal job into every dimension it belongs to.
// Events landing in already-sealed buckets (accounting backfill, bulk
// history loads) write directly into the sealed hour/day aggregates instead
// of the minute level, so sealed buckets are never re-folded and nothing is
// double-counted. Writes older than a level's retention are skipped — the
// coarser level that will actually serve them still gets the data.
func (s *rollupStore) ingest(j *Job) {
	state, started, elapsedSec, limitSec, cpuSec, waitSec, cpus, gpus, maxRSSMB, reqMemMB, gpuUtilPct := jobSample(j)
	var agg RollupAgg
	agg.AddSample(state, started, elapsedSec, limitSec, cpuSec, waitSec, cpus, gpus, maxRSSMB, reqMemMB, gpuUtilPct)

	endSec := j.EndTime.Unix()
	s.ingested++
	if endSec > s.maxSeen {
		s.maxSeen = endSec
	}
	if !s.initialized {
		s.initialized = true
		s.sealedHour = rollupFloor(endSec, RollupHour)
		s.sealedDay = rollupFloor(endSec, RollupDay)
	}

	dims := []rollupDim{
		{RollupScopeTotal, ""},
		{RollupScopeUser, j.User},
		{RollupScopeAccount, j.Account},
		{RollupScopePartition, j.Partition},
	}
	for _, dim := range dims {
		if b, ok := s.bounds[dim]; !ok {
			s.bounds[dim] = [2]int64{endSec, endSec}
		} else {
			if endSec < b[0] {
				b[0] = endSec
			}
			if endSec > b[1] {
				b[1] = endSec
			}
			s.bounds[dim] = b
		}
	}

	m := rollupFloor(endSec, RollupMinute)
	h := rollupFloor(endSec, RollupHour)
	d := rollupFloor(endSec, RollupDay)
	if h >= s.sealedHour {
		// On time: the minute level is the sole carrier until compaction
		// folds it upward, so it is always written.
		s.addDims(0, m, dims, &agg)
		return
	}
	s.lateDirect++
	if m >= s.maxSeen-RollupMinuteRetention {
		s.addDims(0, m, dims, &agg)
	}
	if d < s.sealedDay {
		// Day already sealed: it carries the event; the hour copy is only
		// kept while hour-resolution queries can still reach it.
		s.addDims(2, d, dims, &agg)
		if h >= s.maxSeen-RollupHourRetention {
			s.addDims(1, h, dims, &agg)
		}
		return
	}
	// Day not yet sealed: the hour bucket must carry the event so the
	// eventual day fold (which sums hour buckets) includes it.
	s.addDims(1, h, dims, &agg)
}

// addDims adds agg into the bucket at level for every dimension.
func (s *rollupStore) addDims(level int, bucket int64, dims []rollupDim, agg *RollupAgg) {
	byDim := s.levels[level][bucket]
	if byDim == nil {
		byDim = make(map[rollupDim]*RollupAgg, len(dims))
		s.levels[level][bucket] = byDim
	}
	for _, dim := range dims {
		acc := byDim[dim]
		if acc == nil {
			acc = &RollupAgg{}
			byDim[dim] = acc
		}
		acc.Add(agg)
	}
}

// advance runs cascade compaction and retention eviction up to nowSec: every
// hour fully in the past seals (its minutes fold into one hour bucket), every
// day whose 24 hours are all sealed seals likewise, and buckets older than
// their level's retention are dropped.
func (s *rollupStore) advance(nowSec int64) {
	if !s.initialized {
		return
	}
	for s.sealedHour+RollupHour <= nowSec {
		s.fold(1, s.sealedHour, RollupHour, 0, RollupMinute)
		s.sealedHour += RollupHour
		s.compactHour++
	}
	for s.sealedDay+RollupDay <= nowSec && s.sealedDay+RollupDay <= s.sealedHour {
		s.fold(2, s.sealedDay, RollupDay, 1, RollupHour)
		s.sealedDay += RollupDay
		s.compactDay++
	}
	s.evict(0, nowSec-RollupMinuteRetention)
	s.evict(1, nowSec-RollupHourRetention)
	s.evict(2, nowSec-RollupDayRetention)
}

// fold sums the source-level buckets covering [dstStart, dstStart+dstRes)
// into the destination bucket, creating it only if there is data.
func (s *rollupStore) fold(dstLevel int, dstStart, dstRes int64, srcLevel int, srcRes int64) {
	for t := dstStart; t < dstStart+dstRes; t += srcRes {
		src := s.levels[srcLevel][t]
		if len(src) == 0 {
			continue
		}
		dst := s.levels[dstLevel][dstStart]
		if dst == nil {
			dst = make(map[rollupDim]*RollupAgg, len(src))
			s.levels[dstLevel][dstStart] = dst
		}
		for dim, agg := range src {
			acc := dst[dim]
			if acc == nil {
				acc = &RollupAgg{}
				dst[dim] = acc
			}
			acc.Add(agg)
		}
	}
}

// evict drops buckets starting before cutoff from one level.
func (s *rollupStore) evict(level int, cutoff int64) {
	for t := range s.levels[level] {
		if t < cutoff {
			delete(s.levels[level], t)
			s.evictedBuckets++
		}
	}
}

// query returns the aggregates for [startSec, endSec) at the resolution,
// one row per (bucket, dimension name) that has data, sorted by bucket then
// name. Both bounds must be aligned to res. name narrows a scope to one
// series; empty returns every series in the scope. Buckets past the sealing
// watermark fold the finer level on the fly, so results are exact for
// still-open buckets too.
func (s *rollupStore) query(scope, name string, startSec, endSec, res int64) []RollupRow {
	var rows []RollupRow
	names := make([]string, 0, 8)
	for b := startSec; b < endSec; b += res {
		byName := make(map[string]*RollupAgg)
		s.bucketInto(res, b, scope, name, byName)
		if len(byName) == 0 {
			continue
		}
		names = names[:0]
		for n := range byName {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			rows = append(rows, RollupRow{BucketStart: b, Scope: scope, Name: n, RollupAgg: *byName[n]})
		}
	}
	return rows
}

// bucketInto accumulates one bucket's aggregates into out, keyed by
// dimension name, descending into finer levels for unsealed buckets.
func (s *rollupStore) bucketInto(res, b int64, scope, name string, out map[string]*RollupAgg) {
	switch res {
	case RollupMinute:
		s.mapInto(s.levels[0][b], scope, name, out)
	case RollupHour:
		if b < s.sealedHour {
			s.mapInto(s.levels[1][b], scope, name, out)
			return
		}
		for m := b; m < b+RollupHour; m += RollupMinute {
			s.mapInto(s.levels[0][m], scope, name, out)
		}
	case RollupDay:
		if b < s.sealedDay {
			s.mapInto(s.levels[2][b], scope, name, out)
			return
		}
		for h := b; h < b+RollupDay; h += RollupHour {
			s.bucketInto(RollupHour, h, scope, name, out)
		}
	}
}

func (s *rollupStore) mapInto(m map[rollupDim]*RollupAgg, scope, name string, out map[string]*RollupAgg) {
	for dim, agg := range m {
		if dim.scope != scope || (name != "" && dim.name != name) {
			continue
		}
		acc := out[dim.name]
		if acc == nil {
			acc = &RollupAgg{}
			out[dim.name] = acc
		}
		acc.Add(agg)
	}
}

// boundsFor returns the earliest and latest terminal end times recorded for
// a scope (optionally one named series), for anchoring "all history" ranges.
func (s *rollupStore) boundsFor(scope, name string) (minEnd, maxEnd int64, ok bool) {
	if name != "" || scope == RollupScopeTotal {
		b, found := s.bounds[rollupDim{scope, name}]
		return b[0], b[1], found
	}
	for dim, b := range s.bounds {
		if dim.scope != scope {
			continue
		}
		if !ok || b[0] < minEnd {
			minEnd = b[0]
		}
		if !ok || b[1] > maxEnd {
			maxEnd = b[1]
		}
		ok = true
	}
	return minEnd, maxEnd, ok
}

func (s *rollupStore) snapshot() RollupStats {
	return RollupStats{
		MinuteBuckets:   len(s.levels[0]),
		HourBuckets:     len(s.levels[1]),
		DayBuckets:      len(s.levels[2]),
		CompactionsHour: s.compactHour,
		CompactionsDay:  s.compactDay,
		Ingested:        s.ingested,
		LateDirect:      s.lateDirect,
		EvictedBuckets:  s.evictedBuckets,
	}
}

// RollupQuery serves one rollup read from the accounting daemon. start/end
// are unix seconds aligned to res (callers align; unaligned bounds are
// floored). Counted as a rollup-usage RPC.
func (d *DBD) RollupQuery(scope, name string, start, end, res int64) []RollupRow {
	d.stats.Record(RPCRollup)
	d.mu.RLock()
	defer d.mu.RUnlock()
	if res != RollupMinute && res != RollupHour && res != RollupDay {
		return nil
	}
	return d.rollups.query(scope, name, rollupFloor(start, res), rollupFloor(end+res-1, res), res)
}

// RollupBounds reports the earliest and latest terminal end times the store
// has seen for a scope/series — the anchor for "all history" queries.
// Counted as a rollup-usage RPC.
func (d *DBD) RollupBounds(scope, name string) (minEnd, maxEnd int64, ok bool) {
	d.stats.Record(RPCRollup)
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.rollups.boundsFor(scope, name)
}

// RollupStats snapshots the store's size and compaction counters.
func (d *DBD) RollupStats() RollupStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.rollups.snapshot()
}

// AdvanceRollups runs cascade compaction and eviction up to now. The
// scheduler calls it once per tick after streaming completions.
func (d *DBD) AdvanceRollups(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rollups.advance(now.Unix())
}

// Backfill bulk-loads terminal accounting records: straight into the job
// store and the rollup pipeline, bypassing the scheduler. Used by the
// workload generator to synthesize deep history cheaply. Records that
// already exist, are not terminal, or lack an end time are skipped; the
// count of loaded records is returned. Association usage is not charged
// (backfilled history predates the current billing window).
func (d *DBD) Backfill(jobs []*Job) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	added := 0
	for _, j := range jobs {
		if _, exists := d.jobs[j.ID]; exists {
			continue
		}
		if !j.State.Terminal() || j.EndTime.IsZero() {
			continue
		}
		cp := j.Clone()
		d.jobs[cp.ID] = cp
		d.order = append(d.order, cp.ID)
		d.rollups.ingest(cp)
		added++
	}
	if added > 0 {
		sort.Slice(d.order, func(i, k int) bool {
			a, b := d.jobs[d.order[i]], d.jobs[d.order[k]]
			if !a.SubmitTime.Equal(b.SubmitTime) {
				return a.SubmitTime.Before(b.SubmitTime)
			}
			return a.ID < b.ID
		})
	}
	return added
}
