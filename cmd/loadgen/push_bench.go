// Push-vs-polling benchmark (-sse): the quantitative case for the live-update
// subsystem. Three phases run against identical freshly-built simulated
// stacks, all traffic from the same user so the upstream source set is held
// constant and the only variable is client count and delivery mode:
//
//  1. baseline: ONE polling browser reloading every round;
//  2. polling:  N polling browsers reloading every round;
//  3. sse:      N browsers holding event streams, pages painting from the
//     push-fed client cache.
//
// Each phase counts actual slurmctld/slurmdbd commands beneath the server's
// resilience layer (a counting Runner installed under the workload env), so
// the report shows what the paper's scale concern is really about: upstream
// RPCs per connected client. The SSE phase also records wall-clock event
// delivery latency from scheduler tick to client cache application.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ooddash/internal/browser"
	"ooddash/internal/core"
	"ooddash/internal/push"
	"ooddash/internal/slurmcli"
	"ooddash/internal/workload"
)

// Each round submits the same deterministic batch of jobs in every phase, so
// widget payloads actually change round over round (otherwise the hub's
// content-hash suppression — correctly — publishes nothing) and all three
// phases see identical churn.
const (
	benchChurnSeed = 7
	benchChurnJobs = 5
)

// pushStack is one phase's isolated dashboard: fresh workload (same seed, so
// phases are comparable), counting runner, news and dashboard listeners.
// An A/B bench builds its second server with env.NewServerConfig(newsURL, …).
type pushStack struct {
	env     *workload.Env
	server  *core.Server
	rpcs    *slurmcli.CountingRunner
	newsURL string
	baseURL string
	close   func()
}

func buildPushStack() (*pushStack, error) {
	return buildPushStackConfig(core.Config{})
}

// buildPushStackConfig is buildPushStack with full control of the core
// configuration (the rollup bench raises the per-attempt resilience timeout
// so its raw-ablation scans are measured rather than clipped to 503s).
func buildPushStackConfig(cfg core.Config) (*pushStack, error) {
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	rpcs := slurmcli.NewCountingRunner(env.Runner)
	env.Runner = rpcs

	newsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("news listener: %w", err)
	}
	go func() { _ = http.Serve(newsLn, env.Feed) }()
	newsURL := fmt.Sprintf("http://%s/", newsLn.Addr())
	server, err := env.NewServerConfig(newsURL, cfg)
	if err != nil {
		newsLn.Close()
		return nil, fmt.Errorf("server: %w", err)
	}
	dashLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		server.Close()
		newsLn.Close()
		return nil, fmt.Errorf("dashboard listener: %w", err)
	}
	go func() { _ = http.Serve(dashLn, server) }()
	return &pushStack{
		env:     env,
		server:  server,
		rpcs:    rpcs,
		newsURL: newsURL,
		baseURL: fmt.Sprintf("http://%s", dashLn.Addr()),
		close: func() {
			server.Close()
			dashLn.Close()
			newsLn.Close()
		},
	}, nil
}

// pushPhase is one phase's row in BENCH_push.json.
type pushPhase struct {
	Mode            string           `json:"mode"` // "poll" or "sse"
	Clients         int              `json:"clients"`
	PageLoads       int              `json:"page_loads"`
	InstantRate     float64          `json:"instant_paint_rate"`
	UpstreamRPCs    map[string]int64 `json:"upstream_rpcs"` // by daemon
	RPCTotal        int64            `json:"upstream_rpc_total"`
	RPCsPerClient   float64          `json:"upstream_rpcs_per_client"`
	DegradedPaints  int              `json:"degraded_paints"`
	FailedWidgets   int              `json:"failed_widgets"`
	DeliveredEvents int64            `json:"delivered_events,omitempty"` // sse only
	DroppedEvents   int64            `json:"dropped_events,omitempty"`   // sse only
}

// pushReport is the BENCH_push.json snapshot.
type pushReport struct {
	Kind        string    `json:"kind"` // "push"
	Scenario    string    `json:"scenario"`
	GeneratedAt time.Time `json:"generated_at"`
	Rounds      int       `json:"rounds"`
	Interval    string    `json:"interval"`
	Baseline    pushPhase `json:"baseline_poll_1"`
	Polling     pushPhase `json:"polling_fleet"`
	SSE         pushPhase `json:"sse_fleet"`
	// DeliveryP*Ms are wall-clock milliseconds from scheduler tick to the
	// event being applied in a client's cache.
	DeliveryP50Ms float64 `json:"sse_delivery_p50_ms"`
	DeliveryP95Ms float64 `json:"sse_delivery_p95_ms"`
	DeliveryP99Ms float64 `json:"sse_delivery_p99_ms"`
	// RPCRatio compares the SSE fleet's upstream load to the single-client
	// polling baseline; the push design's promise is that this stays near 1
	// no matter how many clients connect.
	RPCRatio float64 `json:"sse_rpcs_vs_single_poll_baseline"`
}

func phaseFromCollector(mode string, clients int, col *collector, delta map[string]int64) pushPhase {
	col.mu.Lock()
	defer col.mu.Unlock()
	var instant, painted, degraded, failed int
	for _, s := range col.samples {
		instant += s.instant
		painted += s.instant + s.fetches
		degraded += s.degraded
		failed += s.failed
	}
	var total int64
	for _, n := range delta {
		total += n
	}
	p := pushPhase{
		Mode:           mode,
		Clients:        clients,
		PageLoads:      len(col.samples),
		UpstreamRPCs:   delta,
		RPCTotal:       total,
		RPCsPerClient:  float64(total) / float64(clients),
		DegradedPaints: degraded,
		FailedWidgets:  failed,
	}
	if painted > 0 {
		p.InstantRate = float64(instant) / float64(painted)
	}
	return p
}

func rpcDelta(after, before map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// pollPhase runs one polling phase: clients browsers (all the same user, so
// the upstream source set matches the SSE phase) reloading once per round.
func pollPhase(clients, rounds int, interval time.Duration) (pushPhase, error) {
	st, err := buildPushStack()
	if err != nil {
		return pushPhase{}, err
	}
	defer st.close()
	httpc := &http.Client{Timeout: 10 * time.Second}
	user := st.env.UserNames[0]
	browsers := make([]*browser.Browser, clients)
	for i := range browsers {
		browsers[i] = browser.New(user, st.baseURL, httpc, st.env.Clock)
	}
	col := newCollector()
	rng := rand.New(rand.NewSource(benchChurnSeed))
	before := st.rpcs.Snapshot()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for _, b := range browsers {
			wg.Add(1)
			go func(b *browser.Browser) {
				defer wg.Done()
				col.record(b.LoadHomepage())
			}(b)
		}
		wg.Wait()
		st.env.SubmitRandom(rng, benchChurnJobs)
		st.env.Clock.Advance(interval)
		st.env.Cluster.Ctl.Tick()
	}
	return phaseFromCollector("poll", clients, col, rpcDelta(st.rpcs.Snapshot(), before)), nil
}

// ssePhase runs the push phase: clients browsers hold event streams while the
// scheduler refreshes sources on the simulated clock; each round the page is
// "viewed" (LoadHomepage) after events settle, painting from the pushed
// cache.
func ssePhase(clients, rounds int, interval time.Duration) (pushPhase, []time.Duration, error) {
	st, err := buildPushStack()
	if err != nil {
		return pushPhase{}, nil, err
	}
	defer st.close()
	httpc := &http.Client{Timeout: 10 * time.Second}
	user := st.env.UserNames[0]

	var (
		tickAt  atomic.Int64 // unixnano of the last scheduler tick; 0 during replay
		latMu   sync.Mutex
		latency []time.Duration
	)
	browsers := make([]*browser.Browser, clients)
	streams := make([]*browser.EventStream, clients)
	before := st.rpcs.Snapshot()
	for i := range browsers {
		browsers[i] = browser.New(user, st.baseURL, httpc, st.env.Clock)
		stream, err := browsers[i].OpenEventStream(browser.HomepageWidgets(), func(push.Event) {
			if t := tickAt.Load(); t != 0 {
				d := time.Since(time.Unix(0, t))
				latMu.Lock()
				latency = append(latency, d)
				latMu.Unlock()
			}
		})
		if err != nil {
			return pushPhase{}, nil, fmt.Errorf("stream %d: %w", i, err)
		}
		defer stream.Close()
		streams[i] = stream
	}
	settleStreams(streams)

	col := newCollector()
	rng := rand.New(rand.NewSource(benchChurnSeed))
	for round := 0; round < rounds; round++ {
		st.env.SubmitRandom(rng, benchChurnJobs)
		st.env.Clock.Advance(interval)
		st.env.Cluster.Ctl.Tick()
		tickAt.Store(time.Now().UnixNano())
		st.server.TickPush()
		settleStreams(streams)
		tickAt.Store(0)
		var wg sync.WaitGroup
		for _, b := range browsers {
			wg.Add(1)
			go func(b *browser.Browser) {
				defer wg.Done()
				col.record(b.LoadHomepage())
			}(b)
		}
		wg.Wait()
	}
	delta := rpcDelta(st.rpcs.Snapshot(), before)
	phase := phaseFromCollector("sse", clients, col, delta)
	hub := st.server.PushHub().Stats()
	phase.DeliveredEvents = hub.Delivered
	phase.DroppedEvents = hub.Dropped
	latMu.Lock()
	defer latMu.Unlock()
	return phase, latency, nil
}

// settleStreams waits (wall clock) until no stream has applied a new event
// for a few polls — delivery is asynchronous, so measurements take their
// sample only once the fan-out has drained.
func settleStreams(streams []*browser.EventStream) {
	var prev int64 = -1
	stable := 0
	for i := 0; i < 400 && stable < 4; i++ {
		var sum int64
		for _, st := range streams {
			sum += st.Stats().Events
		}
		if sum == prev {
			stable++
		} else {
			stable = 0
			prev = sum
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runPushBench drives the three phases and writes BENCH_push.json.
func runPushBench(users, rounds int, interval time.Duration, benchOut string, maxRatio float64) {
	log.Printf("push bench: %d rounds, %v simulated apart, %d clients", rounds, interval, users)

	log.Printf("phase 1/3: single polling client (baseline)")
	baseline, err := pollPhase(1, rounds, interval)
	if err != nil {
		log.Fatalf("baseline phase: %v", err)
	}
	log.Printf("phase 2/3: %d polling clients", users)
	polling, err := pollPhase(users, rounds, interval)
	if err != nil {
		log.Fatalf("polling phase: %v", err)
	}
	log.Printf("phase 3/3: %d SSE clients", users)
	sse, lats, err := ssePhase(users, rounds, interval)
	if err != nil {
		log.Fatalf("sse phase: %v", err)
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ratio := 0.0
	if baseline.RPCTotal > 0 {
		ratio = float64(sse.RPCTotal) / float64(baseline.RPCTotal)
	}

	fmt.Printf("\n%-18s %8s %10s %12s %14s %13s\n",
		"phase", "clients", "pageloads", "upstreamRPC", "RPC/client", "instant%")
	for _, row := range []struct {
		name string
		p    pushPhase
	}{{"baseline poll×1", baseline}, {"polling fleet", polling}, {"sse fleet", sse}} {
		fmt.Printf("%-18s %8d %10d %12d %14.1f %12.1f%%\n",
			row.name, row.p.Clients, row.p.PageLoads, row.p.RPCTotal,
			row.p.RPCsPerClient, 100*row.p.InstantRate)
	}
	fmt.Printf("\nsse upstream RPCs vs single-client polling baseline: %.2fx\n", ratio)
	fmt.Printf("sse events delivered: %d (dropped %d), delivery p50=%v p95=%v p99=%v\n",
		sse.DeliveredEvents, sse.DroppedEvents,
		percentile(lats, 0.50).Round(time.Microsecond),
		percentile(lats, 0.95).Round(time.Microsecond),
		percentile(lats, 0.99).Round(time.Microsecond))

	if benchOut != "" {
		rep := pushReport{
			Kind:          "push",
			Scenario:      "smoke",
			GeneratedAt:   time.Now().UTC(),
			Rounds:        rounds,
			Interval:      interval.String(),
			Baseline:      baseline,
			Polling:       polling,
			SSE:           sse,
			DeliveryP50Ms: ms(percentile(lats, 0.50)),
			DeliveryP95Ms: ms(percentile(lats, 0.95)),
			DeliveryP99Ms: ms(percentile(lats, 0.99)),
			RPCRatio:      ratio,
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("encoding push snapshot: %v", err)
		}
		if err := os.WriteFile(benchOut, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("writing %s: %v", benchOut, err)
		}
		log.Printf("push bench snapshot written to %s", benchOut)
	}
	if maxRatio >= 0 && ratio > maxRatio {
		log.Printf("FAIL: sse/baseline RPC ratio %.2f exceeds -max-sse-rpc-ratio %.2f", ratio, maxRatio)
		os.Exit(1)
	}
}
