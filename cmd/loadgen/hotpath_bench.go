// Hot-path benchmark (-hotpath): the regression harness for the encode-once
// serving pipeline. Four phases run against warmed in-process servers over
// one environment, all requests cache hits by construction (the simulated
// clock never advances, so no source TTL expires mid-phase):
//
//  1. reencode:    a second server built with the rendered-response layer
//     disabled — every request rebuilds the view model and re-marshals it
//     (the pre-optimization hit path);
//  2. encode-once: rendered layer on — requests serve materialized bytes;
//  3. revalidate:  clients present the stored ETag — responses are 304s;
//  4. traced:      encode-once again with span tracing enabled but sampling
//     probability 0 — every request hashes its trace ID, misses, and runs
//     the hit path through nil-span no-ops.
//
// Phases 1–3 run with tracing fully disabled so their numbers stay
// comparable with the pre-tracing snapshots. Phase 4 exists for its delta
// against phase 2: the -max-trace-allocs gate fails the run if sampled-out
// tracing costs the hit path more than that many allocations per request.
//
// Each phase measures wall-clock latency per request (p50/p95) and exact
// allocations per request (runtime.MemStats.Mallocs delta — monotonic, so
// GC cannot skew it). The report lands in BENCH_hotpath.json and the
// -min-hotpath-alloc-ratio gate fails the run if encode-once stops saving
// at least that multiple of the baseline's allocations, or if its p95 is
// no longer faster — the regression this harness exists to catch.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sort"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/core"
	"os"
)

// hotpathWidgets is the hit-heavy request mix: every JSON homepage widget,
// shared and per-user, so both rendered-cache variants are exercised.
var hotpathWidgets = []string{
	"/api/announcements",
	"/api/system_status",
	"/api/cluster_status",
	"/api/recent_jobs",
	"/api/accounts",
	"/api/storage",
	"/api/myjobs",
}

// nullRecorder is a reusable ResponseWriter that discards the body: the
// benchmark measures the server's allocations, so the recorder itself must
// not allocate per request beyond clearing its header map.
type nullRecorder struct {
	header http.Header
	status int
	bytes  int64
}

func (n *nullRecorder) Header() http.Header { return n.header }
func (n *nullRecorder) WriteHeader(c int)   { n.status = c }
func (n *nullRecorder) Write(p []byte) (int, error) {
	n.bytes += int64(len(p))
	return len(p), nil
}

func (n *nullRecorder) reset() {
	clear(n.header)
	n.status = http.StatusOK
}

// hotpathPhase is one phase's row in BENCH_hotpath.json.
type hotpathPhase struct {
	Mode          string  `json:"mode"` // "reencode", "encode_once", "revalidate_304"
	Requests      int     `json:"requests"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	RenderEncodes int64   `json:"render_encodes"`
	BytesServed   int64   `json:"bytes_served"`
}

// hotpathReport is the BENCH_hotpath.json snapshot.
type hotpathReport struct {
	Kind        string       `json:"kind"` // "hotpath"
	Scenario    string       `json:"scenario"`
	GeneratedAt time.Time    `json:"generated_at"`
	Widgets     []string     `json:"widgets"`
	Users       int          `json:"users"`
	Reencode    hotpathPhase `json:"reencode_baseline"`
	EncodeOnce  hotpathPhase `json:"encode_once"`
	Revalidate  hotpathPhase `json:"revalidate_304"`
	Traced      hotpathPhase `json:"encode_once_traced"`
	// AllocRatio is reencode allocs/op over encode-once allocs/op — the
	// number the regression gate is about.
	AllocRatio float64 `json:"alloc_ratio_reencode_vs_encode_once"`
	P95Ratio   float64 `json:"p95_ratio_reencode_vs_encode_once"`
	// TraceAllocDelta is traced allocs/op minus encode-once allocs/op: what
	// sampled-out span tracing costs the hit path.
	TraceAllocDelta float64 `json:"trace_alloc_delta_sampled_out"`
	RenderHits      int64   `json:"render_hits"`
}

// hotpathRequest is one (user, path) cell of the request mix.
type hotpathRequest struct {
	req  *http.Request
	path string
}

// hotpathMix builds the request mix: every widget in hotpathWidgets for the
// first four users (per-user rendered variants included). Requests are built
// once and reused; contexts and headers the middleware attaches are
// per-serve.
func hotpathMix(users []string) ([]hotpathRequest, error) {
	if len(users) > 4 {
		users = users[:4]
	}
	var mix []hotpathRequest
	for _, u := range users {
		for _, path := range hotpathWidgets {
			req, err := http.NewRequest(http.MethodGet, path, nil)
			if err != nil {
				return nil, fmt.Errorf("building %s: %w", path, err)
			}
			req.Header.Set(auth.UserHeader, u)
			mix = append(mix, hotpathRequest{req: req, path: path})
		}
	}
	return mix, nil
}

// warmMix serves every request of the mix once, filling both cache layers.
func warmMix(server *core.Server, mix []hotpathRequest) error {
	rec := &nullRecorder{header: make(http.Header)}
	for _, r := range mix {
		rec.reset()
		server.ServeHTTP(rec, r.req)
		if rec.status != http.StatusOK {
			return fmt.Errorf("warm GET %s: status %d", r.path, rec.status)
		}
	}
	return nil
}

// runHotpathPhase drives requests round-robin through the mux and measures
// latency percentiles and exact allocs/op for the whole serve path.
func runHotpathPhase(server *core.Server, mode string, reqs []hotpathRequest, rounds int, want int) (hotpathPhase, error) {
	rec := &nullRecorder{header: make(http.Header)}
	lats := make([]time.Duration, 0, rounds*len(reqs))
	encBefore := server.RenderEncodes()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	phaseStart := time.Now()
	for round := 0; round < rounds; round++ {
		for _, r := range reqs {
			rec.reset()
			t0 := time.Now()
			server.ServeHTTP(rec, r.req)
			lats = append(lats, time.Since(t0))
			if rec.status != want {
				return hotpathPhase{}, fmt.Errorf("%s: GET %s: status %d, want %d",
					mode, r.path, rec.status, want)
			}
		}
	}
	elapsed := time.Since(phaseStart)
	runtime.ReadMemStats(&ms)

	n := len(lats)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return hotpathPhase{
		Mode:          mode,
		Requests:      n,
		P50Ms:         ms100(percentile(lats, 0.50)),
		P95Ms:         ms100(percentile(lats, 0.95)),
		NsPerOp:       float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp:   float64(ms.Mallocs-mallocs) / float64(n),
		RenderEncodes: server.RenderEncodes() - encBefore,
		BytesServed:   rec.bytes,
	}, nil
}

// ms100 is ms with enough resolution for sub-millisecond hit latencies.
func ms100(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runHotpathBench builds the stack, runs the four phases, writes the
// snapshot, and applies the allocation-ratio and tracing-overhead gates.
func runHotpathBench(requests int, benchOut string, minAllocRatio, maxTraceAllocs float64) {
	st, err := buildPushStack()
	if err != nil {
		log.Fatalf("hotpath bench: %v", err)
	}
	defer st.close()
	server := st.server
	// Phases 1–3 measure the serving pipeline with tracing fully off —
	// comparable with pre-tracing snapshots of this report.
	reencodeServer, err := st.env.NewServerConfig(st.newsURL, core.Config{
		RenderCacheDisabled: true,
		Trace:               core.TraceConfig{Sample: -1},
	})
	if err != nil {
		log.Fatalf("hotpath bench: %v", err)
	}
	defer reencodeServer.Close()
	server.SetTraceSample(-1)

	mix, err := hotpathMix(st.env.UserNames)
	if err != nil {
		log.Fatalf("hotpath bench: %v", err)
	}
	users := len(mix) / len(hotpathWidgets)
	rounds := requests / len(mix)
	if rounds < 1 {
		rounds = 1
	}
	warm := func(server *core.Server) {
		if err := warmMix(server, mix); err != nil {
			log.Fatalf("hotpath bench: %v", err)
		}
	}

	log.Printf("hotpath bench: %d widgets x %d users, %d rounds per phase",
		len(hotpathWidgets), users, rounds)

	// Phase 1: re-encode baseline. The source cache is warm (clock frozen),
	// so every request is a cache hit that still rebuilds and re-marshals.
	warm(reencodeServer)
	reencode, err := runHotpathPhase(reencodeServer, "reencode", mix, rounds, http.StatusOK)
	if err != nil {
		log.Fatalf("hotpath bench: %v", err)
	}

	// Phase 2: encode-once. Warm fills the rendered cache; measured requests
	// serve materialized bytes.
	warm(server)
	encodeOnce, err := runHotpathPhase(server, "encode_once", mix, rounds, http.StatusOK)
	if err != nil {
		log.Fatalf("hotpath bench: %v", err)
	}

	// Phase 3: ETag revalidation — collect each cell's tag, then replay with
	// If-None-Match expecting 304s.
	reval := make([]hotpathRequest, 0, len(mix))
	tagRec := &nullRecorder{header: make(http.Header)}
	for _, r := range mix {
		tagRec.reset()
		server.ServeHTTP(tagRec, r.req)
		tag := tagRec.header.Get("ETag")
		if tag == "" {
			log.Fatalf("hotpath bench: GET %s: no ETag to revalidate", r.path)
		}
		req := r.req.Clone(r.req.Context())
		req.Header.Set("If-None-Match", tag)
		reval = append(reval, hotpathRequest{req: req, path: r.path})
	}
	revalidate, err := runHotpathPhase(server, "revalidate_304", reval, rounds, http.StatusNotModified)
	if err != nil {
		log.Fatalf("hotpath bench: %v", err)
	}

	// Phase 4: sampled-out tracing over the encode-once hit path. Sampling
	// probability 0 keeps head sampling enabled (the per-request hash runs)
	// while guaranteeing no span is ever built — the overhead every
	// untraced production request pays.
	server.SetTraceSample(0)
	warm(server)
	traced, err := runHotpathPhase(server, "encode_once_traced", mix, rounds, http.StatusOK)
	if err != nil {
		log.Fatalf("hotpath bench: %v", err)
	}
	server.SetTraceSample(-1)

	allocRatio := 0.0
	if encodeOnce.AllocsPerOp > 0 {
		allocRatio = reencode.AllocsPerOp / encodeOnce.AllocsPerOp
	}
	p95Ratio := 0.0
	if encodeOnce.P95Ms > 0 {
		p95Ratio = reencode.P95Ms / encodeOnce.P95Ms
	}
	traceAllocDelta := traced.AllocsPerOp - encodeOnce.AllocsPerOp
	hits, _ := server.RenderStats()

	fmt.Printf("\n%-18s %9s %10s %10s %12s %12s %14s\n",
		"phase", "requests", "p50(ms)", "p95(ms)", "ns/op", "allocs/op", "encodes")
	for _, p := range []hotpathPhase{reencode, encodeOnce, revalidate, traced} {
		fmt.Printf("%-18s %9d %10.3f %10.3f %12.0f %12.1f %14d\n",
			p.Mode, p.Requests, p.P50Ms, p.P95Ms, p.NsPerOp, p.AllocsPerOp, p.RenderEncodes)
	}
	fmt.Printf("\nallocs/op ratio (reencode / encode-once): %.1fx\n", allocRatio)
	fmt.Printf("p95 ratio (reencode / encode-once): %.1fx\n", p95Ratio)
	fmt.Printf("sampled-out tracing overhead: %+.1f allocs/op\n", traceAllocDelta)

	if benchOut != "" {
		rep := hotpathReport{
			Kind:            "hotpath",
			Scenario:        "smoke",
			GeneratedAt:     time.Now().UTC(),
			Widgets:         hotpathWidgets,
			Users:           users,
			Reencode:        reencode,
			EncodeOnce:      encodeOnce,
			Revalidate:      revalidate,
			Traced:          traced,
			AllocRatio:      allocRatio,
			P95Ratio:        p95Ratio,
			TraceAllocDelta: traceAllocDelta,
			RenderHits:      hits,
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("encoding hotpath snapshot: %v", err)
		}
		if err := os.WriteFile(benchOut, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("writing %s: %v", benchOut, err)
		}
		log.Printf("hotpath bench snapshot written to %s", benchOut)
	}
	if minAllocRatio >= 0 {
		if allocRatio < minAllocRatio {
			log.Printf("FAIL: allocs/op ratio %.2f below -min-hotpath-alloc-ratio %.2f",
				allocRatio, minAllocRatio)
			os.Exit(1)
		}
		if encodeOnce.P95Ms > reencode.P95Ms {
			log.Printf("FAIL: encode-once p95 %.3fms exceeds re-encode baseline %.3fms",
				encodeOnce.P95Ms, reencode.P95Ms)
			os.Exit(1)
		}
	}
	if maxTraceAllocs >= 0 && traceAllocDelta > maxTraceAllocs {
		log.Printf("FAIL: sampled-out tracing adds %.2f allocs/op, above -max-trace-allocs %.2f",
			traceAllocDelta, maxTraceAllocs)
		os.Exit(1)
	}
}
