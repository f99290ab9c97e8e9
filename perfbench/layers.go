package main

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ooddash/internal/core"
	"ooddash/internal/slurmcli"
)

// The traced run measures layers from outside the program: each wrapper
// below times calls into one public seam of the server and reads no program
// internals. A call into the Slurm runner or the REST handler is attributed
// to client traffic when its context descends from a request the server
// wrapper saw, and to the push refresh loop otherwise.

// busy accumulates calls and wall time in one seam.
type busy struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (b *busy) add(d time.Duration) {
	b.calls.Add(1)
	b.ns.Add(int64(d))
}

func (b *busy) ms() float64 { return float64(b.ns.Load()) / 1e6 }

// meter holds every seam's counters. Wrappers record only while on is set,
// so a traced run can measure an untraced phase on the same stack.
type meter struct {
	on atomic.Bool

	serve             busy // dashboard ServeHTTP, page requests only
	slurmReq, slurmBg busy // Deps.Runner calls
	restReq, restBg   busy // REST Client.Handler calls
	news              busy // news API handler
	logs              busy // Deps.Logs reads
	slurmOutBytes     atomic.Int64
	windowSacct       atomic.Int64 // sacct over a time window: My Jobs fills
	restNotModified   atomic.Int64
	sacctMu           sync.Mutex
	sacct             []float64 // sacct call times, ms
}

type inRequestKey struct{}

func fromRequest(ctx context.Context) bool { return ctx.Value(inRequestKey{}) != nil }

// timedServer wraps the dashboard handler. The event stream is excluded: a
// held SSE connection is not a page fetch.
type timedServer struct {
	next http.Handler
	m    *meter
}

func (t timedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.m.on.Load() || r.URL.Path == "/api/events" {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), inRequestKey{}, true)))
	t.m.serve.add(time.Since(start))
}

// timedRunner wraps Deps.Runner. It implements slurmcli.CtxRunner so the
// server's trace context (and the request mark) still reach the daemon.
type timedRunner struct {
	next slurmcli.Runner
	m    *meter
}

func (t *timedRunner) Run(name string, args ...string) (string, error) {
	return t.RunContext(context.Background(), name, args...)
}

func (t *timedRunner) RunContext(ctx context.Context, name string, args ...string) (string, error) {
	if !t.m.on.Load() {
		return slurmcli.RunWith(ctx, t.next, name, args...)
	}
	start := time.Now()
	out, err := slurmcli.RunWith(ctx, t.next, name, args...)
	d := time.Since(start)
	if fromRequest(ctx) {
		t.m.slurmReq.add(d)
	} else {
		t.m.slurmBg.add(d)
	}
	t.m.slurmOutBytes.Add(int64(len(out)))
	if name == "sacct" {
		if slices.Contains(args, "-S") {
			t.m.windowSacct.Add(1)
		}
		t.m.sacctMu.Lock()
		t.m.sacct = append(t.m.sacct, float64(d)/1e6)
		t.m.sacctMu.Unlock()
	}
	return out, err
}

// timedHandler wraps the REST client's Handler (the in-process slurmrestd).
type timedHandler struct {
	next http.Handler
	m    *meter
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (t timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.m.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	t.next.ServeHTTP(sw, r)
	d := time.Since(start)
	if fromRequest(r.Context()) {
		t.m.restReq.add(d)
	} else {
		t.m.restBg.add(d)
	}
	if sw.status == http.StatusNotModified {
		t.m.restNotModified.Add(1)
	}
}

// timedFeed wraps the news API handler. The dashboard reaches it from its
// announcements route only: no workload subscribes the announcements widget
// to push, so every news call is client traffic.
type timedFeed struct {
	next http.Handler
	m    *meter
}

func (t timedFeed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.m.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r)
	t.m.news.add(time.Since(start))
}

// timedLogs wraps Deps.Logs, which only the job-logs route reads.
type timedLogs struct {
	next core.LogStore
	m    *meter
}

func (t timedLogs) ReadTail(path string, maxLines int) ([]core.LogLine, int, error) {
	if !t.m.on.Load() {
		return t.next.ReadTail(path, maxLines)
	}
	start := time.Now()
	lines, total, err := t.next.ReadTail(path, maxLines)
	t.m.logs.add(time.Since(start))
	return lines, total, err
}

// reconciliation splits the busy time the benchmark observed into exclusive
// (self) time per layer. The total is what the benchmark itself timed: every page
// fetch as the browser measured it, plus every TickPush call. The layers
// are timed independently by the wrappers and the checking transport:
//
//	http      = transport time (request written to body closed) - ServeHTTP
//	core      = ServeHTTP - upstream calls made for requests
//	slurm, slurmrest, newsfeed, logstore = their wrappers' time
//	push      = TickPush - upstream calls the push refreshes made
//
// What no wrapper covers (request construction in the browser, the
// http.Client around the transport) is the residual. A negative self time
// means a layer's calls ran outside its parent and fails the check.
type reconciliation struct {
	totalMS  float64
	selfMS   map[string]float64
	residual float64 // share of totalMS
	ok       bool
}

// reconcileLimit is the largest residual share the check accepts.
const reconcileLimit = 0.05

func reconcile(m *meter, clientMS, transportMS, tickMS float64) reconciliation {
	upReq := m.slurmReq.ms() + m.restReq.ms() + m.news.ms() + m.logs.ms()
	self := map[string]float64{
		"http":      transportMS - m.serve.ms(),
		"core":      m.serve.ms() - upReq,
		"slurm":     m.slurmReq.ms() + m.slurmBg.ms(),
		"slurmrest": m.restReq.ms() + m.restBg.ms(),
		"newsfeed":  m.news.ms(),
		"logstore":  m.logs.ms(),
		"push":      tickMS - m.slurmBg.ms() - m.restBg.ms(),
	}
	rc := reconciliation{totalMS: clientMS + tickMS, selfMS: self, ok: true}
	sum := 0.0
	for _, v := range self {
		sum += v
		if v < 0 {
			rc.ok = false
		}
	}
	if rc.totalMS > 0 {
		rc.residual = (rc.totalMS - sum) / rc.totalMS
	}
	if rc.residual > reconcileLimit || rc.residual < -reconcileLimit {
		rc.ok = false
	}
	return rc
}

// layerMetrics reports the traced phase's per-layer metrics and logs the
// reconciliation. It returns whether the layers reconciled.
func layerMetrics(put func(name, unit string, v float64), st *stack, d *driver, recs []pageRecord,
	b, a snapshot, untraced latency, buildS, setupS float64) bool {
	m := st.meter
	pages := float64(len(recs))
	var paints, instant, revalidated, fetches int
	var clientMS float64
	for _, r := range recs {
		paints += r.paints
		instant += r.instant
		revalidated += r.revalidated
		fetches += len(r.fetchMS)
		for _, f := range r.fetchMS {
			clientMS += f
		}
	}
	reqs := float64(a.requests - b.requests)
	tickMS := float64(a.tickNS-b.tickNS) / 1e6
	rc := reconcile(m, clientMS, float64(a.transportNS-b.transportNS)/1e6, tickMS)
	traced := summarize(recs)

	put("clientcache.instant_ratio", "ratio", ratio(float64(instant), float64(paints)))
	put("clientcache.revalidated_per_page", "count", float64(revalidated)/pages)
	put("browser.fetches_per_page", "count", float64(fetches)/pages)

	put("http.self_ms_per_req", "ms", ratio(rc.selfMS["http"], reqs))
	put("http.bytes_per_req", "B", ratio(float64(a.bytes-b.bytes), reqs))

	put("core.self_ms_per_page", "ms", rc.selfMS["core"]/pages)
	hits, misses := a.renderHits-b.renderHits, a.renderMisses-b.renderMisses
	put("render.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	put("render.encodes_per_page", "count", float64(a.encodes-b.encodes)/pages)
	put("admission.rejected", "count", float64(a.rejected-b.rejected))

	ch, cm := a.cache.Hits-b.cache.Hits, a.cache.Misses-b.cache.Misses
	put("cache.hit_ratio", "ratio", ratio(float64(ch), float64(ch+cm)))
	put("cache.collapsed", "count", float64(a.cache.Collapsed-b.cache.Collapsed))
	put("cache.stale_served", "count", float64(a.cache.StaleServed-b.cache.StaleServed))

	put("resilience.retries", "count", float64(a.retries-b.retries))
	put("resilience.short_circuits", "count", float64(a.shortCircuits-b.shortCircuits))

	slurmCalls := float64(m.slurmReq.calls.Load() + m.slurmBg.calls.Load())
	put("slurm.busy_ms_per_page", "ms", rc.selfMS["slurm"]/pages)
	put("slurm.calls_per_page", "count", slurmCalls/pages)
	put("slurm.out_bytes_per_call", "B", ratio(float64(m.slurmOutBytes.Load()), slurmCalls))
	m.sacctMu.Lock()
	sacctP50 := 0.0
	if len(m.sacct) > 0 {
		sacctP50 = median(m.sacct)
	}
	m.sacctMu.Unlock()
	put("slurm.sacct_p50_ms", "ms", sacctP50)
	views := 0
	for _, r := range recs {
		if r.myJobs {
			views++
		}
	}
	put("myjobs.sacct_per_view", "count", ratio(float64(m.windowSacct.Load()), float64(views)))
	put("slurmctld.rpcs", "count", float64(a.ctl-b.ctl))
	put("slurmdbd.rpcs", "count", float64(a.dbd-b.dbd))
	put("slurm.write_ms_per_step", "ms", ratio(float64(a.writeNS-b.writeNS)/1e6, float64(a.writes-b.writes)))

	restCalls := float64(m.restReq.calls.Load() + m.restBg.calls.Load())
	put("slurmrest.busy_ms_per_page", "ms", rc.selfMS["slurmrest"]/pages)
	put("slurmrest.calls_per_page", "count", restCalls/pages)
	put("slurmrest.not_modified_ratio", "ratio", ratio(float64(m.restNotModified.Load()), restCalls))

	put("newsfeed.calls", "count", float64(m.news.calls.Load()))
	put("logstore.busy_ms_per_page", "ms", rc.selfMS["logstore"]/pages)

	ticks := float64(a.ticks - b.ticks)
	put("push.tick_ms", "ms", ratio(tickMS, ticks))
	put("push.events_per_tick", "count", ratio(float64(a.events-b.events), ticks))
	d.lagMu.Lock()
	lagP50 := 0.0
	if lags := d.pushLagMS[b.lags:a.lags]; len(lags) > 0 {
		lagP50 = median(lags)
	}
	d.lagMu.Unlock()
	put("push.lag_p50_ms", "ms", lagP50)

	put("gc.cycles_per_kpage", "count", float64(a.numGC-b.numGC)/pages*1000)
	put("loadgen.late_p99_ms", "ms", traced.lateTail)
	put("setup.build_s", "s", buildS)
	put("setup.serve_s", "s", setupS-buildS)
	put("trace.page_p50_ms", "ms", traced.pageP50)
	put("trace.overhead_ratio", "ratio", traced.pageP50/untraced.pageP50)
	put("reconcile.residual_pct", "%", 100*rc.residual)

	layers := make([]string, 0, len(rc.selfMS))
	for l := range rc.selfMS {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var sb strings.Builder
	for _, l := range layers {
		fmt.Fprintf(&sb, " %s=%.1fms(%.1f%%)", l, rc.selfMS[l], 100*ratio(rc.selfMS[l], rc.totalMS))
	}
	logf("reconciliation over %d pages: total %.1fms =%s, residual %.2f%% (limit %.0f%%), ok=%t",
		len(recs), rc.totalMS, sb.String(), 100*rc.residual, 100*reconcileLimit, rc.ok)
	logf("tracing overhead: page p50 %.3fms traced vs %.3fms untraced", traced.pageP50, untraced.pageP50)
	return rc.ok
}
