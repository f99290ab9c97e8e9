// Command perfbench is the dashboard's end-to-end benchmark. One run builds
// the default generated cluster, serves the dashboard in its production
// configuration on a loopback socket, and drives simulated browsers through
// one workload in an open loop, each page view timed from its due time.
// Every response is checked; the last line of standard output is one JSON
// object with the metrics. With -trace 1 the run also times each layer
// through wrappers on the server's public seams, measures saturation
// throughput in a closed loop, and reports the latency, throughput and
// per-layer metrics. See README.md.
//
//	go run . --workload homepage --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"ooddash/internal/workload"
)

// setups is how many times a run starts and warms the dashboard over its
// generated cluster; it reports the median and measures on the last one.
const setups = 3

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the generated cluster and the arrival schedule")
	seconds := flag.Int("seconds", 30, "length of the open-loop phase in seconds")
	traced := flag.Int("trace", 0, "1 times each layer and reports per-layer metrics")
	flag.Parse()
	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := bench(def, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		logf("%s: %v", def.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("encode result: %v", err)
		os.Exit(1)
	}
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				logf("peak resident memory %s", strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")))
			}
		}
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench performs one run and returns its result. Every run serves the same
// cluster, workload.DefaultSpec; seed drives the traffic.
func bench(def workloadDef, seed int64, window time.Duration, traced bool) (*result, error) {
	start := time.Now()
	env, err := buildEnv(workload.DefaultSpec(), usesREST(def.backend))
	if err != nil {
		return nil, fmt.Errorf("build environment: %w", err)
	}
	buildS := time.Since(start).Seconds()
	var (
		st      *stack
		d       *driver
		serveS  []float64
		warmErr error
	)
	for k := 0; k < setups; k++ {
		if st != nil {
			d.close()
			st.close()
			runtime.GC()
		}
		start := time.Now()
		st, err = startStack(env, def.backend, traced)
		if err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		d, err = newDriver(st, def, seed)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("set up driver: %w", err)
		}
		d.phase(nil, def.warm)
		serveS = append(serveS, time.Since(start).Seconds())
		if n := d.check.failures.Load(); n > 0 {
			warmErr = fmt.Errorf("warm-up: %d failed checks: %v", n, d.check.errs)
		}
	}
	defer st.close()
	defer d.close()
	if warmErr != nil {
		return nil, warmErr
	}
	d.phase(nil, def.settle)
	setupS := buildS + median(serveS)
	logf("%s seed %d: set-up %.2fs (build %.2fs, serve and warm up %v), arrivals due at %.0f/s",
		def.name, seed, setupS, buildS, serveS, def.rate)

	res := &result{Correct: true, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	dues := arrivals(seed, def.rate, window)
	var attempted, failed int64
	tally := func(recs []pageRecord) {
		for _, r := range recs {
			attempted += int64(r.paints)
			failed += int64(r.failed)
		}
	}
	checksBefore := d.check.failures.Load()

	if !traced {
		before := d.snap()
		open := d.phase(dues, 0)
		after := d.snap()
		pages := float64(len(open))
		tally(open)
		put("heap_live_mb", "MB", heapLiveMB())
		put("setup_s", "s", setupS)
		put("bytes_per_page", "B", float64(after.bytes-before.bytes)/pages)
		put("allocs_per_page", "count", float64(after.mallocs-before.mallocs)/pages)
		put("slurm_rpcs_per_page", "count", float64(after.rpcs()-before.rpcs())/pages)
		lat := summarize(open)
		logf("open loop: %d pages, page p50 %.3fms p%.1f %.3fms, request p50 %.3fms p%.1f %.3fms of %d fetches, late p50 %.2fms max %.2fms",
			len(open), lat.pageP50, 100*lat.pageQ, lat.pageTail, lat.reqP50, 100*lat.reqQ, lat.reqTail, lat.fetches, lat.lateP50, lat.lateMax)
	} else {
		// The latencies and throughput come from phases with the wrappers
		// off: the open loop, then (after the traced phase) the closed loop.
		plain := d.phase(dues, 0)
		tally(plain)
		untraced := summarize(plain)
		put("page_p50_ms", "ms", untraced.pageP50)
		put("page_p90_ms", "ms", untraced.pageTail)
		put("req_p50_ms", "ms", untraced.reqP50)
		put("req_p90_ms", "ms", untraced.reqTail)
		st.meter.on.Store(true)
		before := d.snap()
		recs := d.phase(dues, 0)
		after := d.snap()
		st.meter.on.Store(false)
		tally(recs)
		if !layerMetrics(put, st, d, recs, before, after, untraced, buildS, setupS) {
			res.Correct = false
		}
		closedStart := time.Now()
		closed := d.phase(nil, def.closed)
		put("saturation_rps", "1/s", float64(len(closed))/time.Since(closedStart).Seconds())
		tally(closed)
	}

	// Output checks with the clock held still.
	for _, check := range postChecks(def) {
		attempted++
		if err := check(st, d); err != nil {
			failed++
			d.check.note(err)
		}
	}
	failed += d.check.failures.Load() - checksBefore
	if !traced {
		put("success_rate", "ratio", 1-ratio(float64(failed), float64(attempted)))
	}
	res.Attempted, res.Failed = attempted, failed
	if failed > 0 {
		res.Correct = false
		logf("%d of %d failed; first: %v", failed, attempted, d.check.errs)
	}
	return res, nil
}

// heapLiveMB is the live heap after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// tailQ is the quantile the tail metrics report. The 99th percentile of a
// run's page views is set by the few that overlap a GC cycle or a stolen
// CPU slice; it spread 33% (homepage) to 54% (cluster_churn) between runs.
const tailQ = 0.9

// latency is the latency summary of one phase.
type latency struct {
	pageP50, pageTail, pageQ float64
	reqP50, reqTail, reqQ    float64
	lateP50, lateTail        float64
	lateMax                  float64
	fetches                  int
}

// summarize computes page latency from each view's due time to its last
// widget painted, request latency per network fetch, and lateness (due to
// started).
func summarize(recs []pageRecord) latency {
	var pageMS, reqMS, lateMS []float64
	for _, r := range recs {
		pageMS = append(pageMS, float64(r.end.Sub(r.due))/1e6)
		lateMS = append(lateMS, float64(r.start.Sub(r.due))/1e6)
		reqMS = append(reqMS, r.fetchMS...)
	}
	var s latency
	s.pageP50 = median(pageMS)
	s.pageTail, s.pageQ = tail(pageMS, tailQ)
	s.reqP50 = median(reqMS)
	s.reqTail, s.reqQ = tail(reqMS, tailQ)
	s.lateP50 = median(lateMS)
	s.lateTail, _ = tail(lateMS, 0.99)
	for _, l := range lateMS {
		s.lateMax = max(s.lateMax, l)
	}
	s.fetches = len(reqMS)
	return s
}
