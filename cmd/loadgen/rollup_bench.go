// Rollup benchmark (-rollup): the scaling harness for the historical
// analytics pipeline. The claim under test is O(buckets) queries: a
// rollup-backed widget's latency depends on the window's bucket count, not
// on how many jobs accounting holds. The harness grows the accounting store
// 1x -> 100x -> 1000x with synthesized multi-year history (Backfill feeds
// the same ingest path live completions use) and at each scale measures two
// request populations over identical sliding windows:
//
//   - rollup:  the production path — pre-aggregated buckets from the store;
//   - raw:     the ablation — a second server over the same environment,
//     built with core.Config.RollupDisabled, recomputes the same windows by
//     scanning raw accounting rows, i.e. the pre-optimization cost.
//
// Every timed window is shifted by whole days so its aligned bounds — and
// therefore its cache key — are unique: each request is a cold read of the
// store, never a cache hit. At each scale the harness also byte-compares
// rollup and raw responses over a fixed wide window (the golden check the
// core tests run on seed history, re-run here against synthetic bulk); any
// mismatch fails the run regardless of gates.
//
// The report lands in BENCH_rollup.json. The -max-rollup-p95-ratio gate
// fails the run if the rollup path's p95 at 1000x exceeds that multiple of
// its 1x p95 — the flat-latency property the pipeline exists to provide.
// The raw ablation's degradation is reported alongside as the baseline the
// rollups beat.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/core"
)

// rollupScaleRow is one history scale's measurements in BENCH_rollup.json.
type rollupScaleRow struct {
	Scale          int     `json:"scale"` // 1, 100, 1000
	JobsInStore    int     `json:"jobs_in_store"`
	RollupRequests int     `json:"rollup_requests"`
	RollupP50Ms    float64 `json:"rollup_p50_ms"`
	RollupP95Ms    float64 `json:"rollup_p95_ms"`
	RollupMaxMs    float64 `json:"rollup_max_ms"`
	RawRequests    int     `json:"raw_requests"`
	RawP50Ms       float64 `json:"raw_p50_ms"`
	RawP95Ms       float64 `json:"raw_p95_ms"`
	GoldenPaths    int     `json:"golden_paths_checked"`
	GoldenOK       bool    `json:"golden_byte_identical"`
}

// rollupReport is the BENCH_rollup.json snapshot.
type rollupReport struct {
	Kind        string           `json:"kind"` // "rollup"
	GeneratedAt time.Time        `json:"generated_at"`
	BaseJobs    int              `json:"base_jobs"`
	Scales      []rollupScaleRow `json:"scales"`
	// RollupP95Ratio is rollup p95 at the top scale over the 1x p95 (with a
	// small absolute floor on the baseline so sub-millisecond noise cannot
	// fail the gate) — the number -max-rollup-p95-ratio is about.
	RollupP95Ratio float64 `json:"rollup_p95_ratio_top_vs_1x"`
	// RawP95Ratio is the ablation's degradation over the same growth — the
	// super-linear baseline the rollups replace.
	RawP95Ratio  float64 `json:"raw_p95_ratio_top_vs_1x"`
	MinuteBucket int     `json:"store_minute_buckets"`
	HourBuckets  int     `json:"store_hour_buckets"`
	DayBuckets   int     `json:"store_day_buckets"`
}

// rollupBenchPaths builds n requests over day-aligned 180-day windows, each
// shifted one day further back so every aligned window (and cache key) in
// the run is unique. The mix cycles the four rollup-backed read shapes:
// total-scope chart, account ranking, per-user aggregate, per-user series.
func rollupBenchPaths(now time.Time, shiftBase int64, n int, user string) []hotpathRequest {
	day := now.Unix() - now.Unix()%86400
	stamp := func(sec int64) string {
		return time.Unix(sec, 0).UTC().Format(time.RFC3339)
	}
	reqs := make([]hotpathRequest, 0, n)
	for i := 0; i < n; i++ {
		to := day - (shiftBase+int64(i))*86400
		from := to - 180*86400
		window := fmt.Sprintf("range=custom&from=%s&to=%s", stamp(from), stamp(to))
		var path string
		switch i % 4 {
		case 0:
			path = "/api/usage/cluster?" + window + "&bucket=day"
		case 1:
			path = "/api/usage/accounts?" + window
		case 2:
			path = "/api/jobperf?" + window
		case 3:
			path = "/api/jobperf/timeseries?" + window + "&bucket=day"
		}
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			log.Fatalf("rollup bench: building %s: %v", path, err)
		}
		req.Header.Set(auth.UserHeader, user)
		reqs = append(reqs, hotpathRequest{req: req, path: path})
	}
	return reqs
}

// timeRollupRequests serves each request once and returns sorted latencies.
func timeRollupRequests(server *core.Server, reqs []hotpathRequest) []time.Duration {
	rec := &nullRecorder{header: make(http.Header)}
	lats := make([]time.Duration, 0, len(reqs))
	for _, r := range reqs {
		rec.reset()
		t0 := time.Now()
		server.ServeHTTP(rec, r.req)
		lats = append(lats, time.Since(t0))
		if rec.status != http.StatusOK {
			body := httptest.NewRecorder()
			server.ServeHTTP(body, r.req)
			log.Fatalf("rollup bench: GET %s: status %d: %s", r.path, rec.status, body.Body)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats
}

// rollupGoldenCheck byte-compares the rollup server's responses with the
// raw-recompute server's over a fixed wide window. The window's `to` edge is
// shifted by scaleIdx days so each scale reads fresh cache entries. Returns
// paths checked and whether all matched.
func rollupGoldenCheck(server, rawServer *core.Server, now time.Time, scaleIdx int, user string) (int, bool) {
	day := now.Unix() - now.Unix()%86400
	to := day - int64(scaleIdx)*86400
	from := to - 600*86400
	stamp := func(sec int64) string {
		return time.Unix(sec, 0).UTC().Format(time.RFC3339)
	}
	window := fmt.Sprintf("range=custom&from=%s&to=%s", stamp(from), stamp(to))
	paths := []string{
		"/api/usage/cluster?" + window + "&bucket=day",
		"/api/usage/accounts?" + window,
		"/api/usage/efficiency?" + window,
		"/api/jobperf?" + window,
		"/api/jobperf/timeseries?" + window + "&bucket=day",
	}
	get := func(server *core.Server, path string) []byte {
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			log.Fatalf("rollup bench: building %s: %v", path, err)
		}
		req.Header.Set(auth.UserHeader, user)
		rec := httptest.NewRecorder()
		server.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			log.Fatalf("rollup bench: golden GET %s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	ok := true
	for _, path := range paths {
		rolled := get(server, path)
		raw := get(rawServer, path)
		if string(rolled) != string(raw) {
			ok = false
			log.Printf("GOLDEN MISMATCH: %s\nrollup: %.200s\nraw:    %.200s", path, rolled, raw)
		}
	}
	return len(paths), ok
}

// runRollupBench grows the store through the scales, measures both paths,
// writes the snapshot, and applies the flat-p95 gate.
func runRollupBench(requests int, benchOut string, maxRatio float64) {
	if requests < 4 {
		requests = 4
	}
	// The raw ablation at 1000x scans hundreds of thousands of accounting
	// rows per window — slower than the production 2s per-attempt resilience
	// timeout by design (that cost is the measurement). Raise the timeout so
	// the ablation is timed rather than clipped into 503s; the rollup path
	// never comes near either limit.
	cfg := core.Config{}
	cfg.Resilience.Policy.Timeout = 60 * time.Second
	st, err := buildPushStackConfig(cfg)
	if err != nil {
		log.Fatalf("rollup bench: %v", err)
	}
	defer st.close()
	server := st.server
	cfg.RollupDisabled = true
	rawServer, err := st.env.NewServerConfig(st.newsURL, cfg)
	if err != nil {
		log.Fatalf("rollup bench: %v", err)
	}
	defer rawServer.Close()
	env := st.env
	user := env.UserNames[0]
	now := env.Clock.Now()

	const baseJobs = 300
	scales := []int{1, 100, 1000}
	// The raw ablation is O(jobs): fewer iterations at high scale keep the
	// run short without losing the trend.
	rawCounts := []int{20, 8, 4}

	var rows []rollupScaleRow
	synthesized := 0
	for si, scale := range scales {
		target := baseJobs * scale
		added := env.SynthesizeHistory(synthesized, target-synthesized)
		synthesized = target
		jobsInStore := env.Cluster.DBD.JobCount()
		log.Printf("rollup bench: scale %dx — %d synthesized jobs added (%d in store)",
			scale, added, jobsInStore)

		// Unique day shifts per scale and phase so no window repeats
		// anywhere in the run.
		shiftBase := int64(si) * int64(2*requests+64)
		rollupLats := timeRollupRequests(server,
			rollupBenchPaths(now, shiftBase, requests, user))

		rawLats := timeRollupRequests(rawServer,
			rollupBenchPaths(now, shiftBase+int64(requests+17), rawCounts[si], user))

		checked, goldenOK := rollupGoldenCheck(server, rawServer, now, si, user)

		row := rollupScaleRow{
			Scale:          scale,
			JobsInStore:    jobsInStore,
			RollupRequests: len(rollupLats),
			RollupP50Ms:    ms100(percentile(rollupLats, 0.50)),
			RollupP95Ms:    ms100(percentile(rollupLats, 0.95)),
			RollupMaxMs:    ms100(rollupLats[len(rollupLats)-1]),
			RawRequests:    len(rawLats),
			RawP50Ms:       ms100(percentile(rawLats, 0.50)),
			RawP95Ms:       ms100(percentile(rawLats, 0.95)),
			GoldenPaths:    checked,
			GoldenOK:       goldenOK,
		}
		rows = append(rows, row)
		log.Printf("rollup bench: scale %dx — rollup p95 %.3fms, raw p95 %.3fms, golden %v",
			scale, row.RollupP95Ms, row.RawP95Ms, goldenOK)
	}

	// Floor the baseline at 5ms. At 1x the windows are mostly empty, so the
	// measured p95 is fixed per-request overhead in the hundreds of
	// microseconds; ratios over such a baseline amplify noise and bucket
	// density, not algorithmic growth. With the floor, the gate trips at a
	// p95 above maxRatio*5ms — far above anything the O(buckets) path
	// produces and far below the hundreds of milliseconds an O(jobs)
	// regression produces (compare the raw ablation's p95 at 1000x).
	const p95FloorMs = 5.0
	base := rows[0].RollupP95Ms
	if base < p95FloorMs {
		base = p95FloorMs
	}
	top := rows[len(rows)-1]
	rollupRatio := top.RollupP95Ms / base
	rawBase := rows[0].RawP95Ms
	if rawBase < p95FloorMs {
		rawBase = p95FloorMs
	}
	rawRatio := top.RawP95Ms / rawBase
	stats := env.Cluster.DBD.RollupStats()
	log.Printf("rollup bench: p95 ratio %dx vs 1x — rollup %.2f, raw ablation %.2f",
		top.Scale, rollupRatio, rawRatio)

	if benchOut != "" {
		rep := rollupReport{
			Kind:           "rollup",
			GeneratedAt:    time.Now().UTC(),
			BaseJobs:       baseJobs,
			Scales:         rows,
			RollupP95Ratio: rollupRatio,
			RawP95Ratio:    rawRatio,
			MinuteBucket:   stats.MinuteBuckets,
			HourBuckets:    stats.HourBuckets,
			DayBuckets:     stats.DayBuckets,
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("encoding rollup snapshot: %v", err)
		}
		if err := os.WriteFile(benchOut, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("writing %s: %v", benchOut, err)
		}
		log.Printf("rollup bench snapshot written to %s", benchOut)
	}

	failed := false
	for _, row := range rows {
		if !row.GoldenOK {
			log.Printf("FAIL: rollup and raw responses diverged at scale %dx", row.Scale)
			failed = true
		}
	}
	if maxRatio >= 0 && rollupRatio > maxRatio {
		log.Printf("FAIL: rollup p95 ratio %.2f at %dx exceeds -max-rollup-p95-ratio %.2f",
			rollupRatio, top.Scale, maxRatio)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
