package fleet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/browser"
	"ooddash/internal/core"
	"ooddash/internal/obs/obstest"
	"ooddash/internal/push"
	"ooddash/internal/slo"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/workload"
)

// newTestFleet builds a fleet of n replicas over one shared simulated
// environment — N dashboard processes in front of one Slurm.
func newTestFleet(t *testing.T, n int, policy Policy, mutate func(*Options)) (*workload.Env, *Fleet) {
	t.Helper()
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	newsSrv := httptest.NewServer(env.Feed)
	t.Cleanup(newsSrv.Close)
	opts := Options{
		Replicas:         n,
		Policy:           policy,
		Clock:            env.Clock,
		Runner:           env.Runner,
		HeartbeatTimeout: 40 * time.Second,
		Build: func(id string, r slurmcli.Runner) (*core.Server, error) {
			return env.NewServerRunner(newsSrv.URL, core.Config{
				Push: core.PushConfig{DisableIdlePause: true, Jitter: -1},
			}, r)
		},
	}
	if mutate != nil {
		mutate(&opts)
	}
	fl, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	return env, fl
}

func TestNewRejectsMissingClock(t *testing.T) {
	_, err := New(Options{
		Runner: &countingRunner{},
		Build: func(string, slurmcli.Runner) (*core.Server, error) {
			t.Fatal("Build called without a clock")
			return nil, nil
		},
	})
	if err == nil {
		t.Fatal("New accepted a nil Clock")
	}
}

func fleetGet(t *testing.T, h http.Handler, user, path, etag string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if user != "" {
		req.Header.Set(auth.UserHeader, user)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestLBRoundRobinSpreads(t *testing.T) {
	env, fl := newTestFleet(t, 3, PolicyRoundRobin, nil)
	user := env.UserNames[0]
	for i := 0; i < 9; i++ {
		rec := fleetGet(t, fl, user, "/api/system_status", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
		if rec.Header().Get(fleetReplicaHeaderKey) == "" {
			t.Fatalf("request %d: missing replica header", i)
		}
	}
	for _, id := range fl.Replicas() {
		if got := fl.met.lbRequests.Value(id); got != 3 {
			t.Fatalf("replica %s served %d of 9 requests, want 3", id, got)
		}
	}
}

func TestLBLeastConnPrefersIdleReplica(t *testing.T) {
	env, fl := newTestFleet(t, 3, PolicyLeastConn, nil)
	srv := httptest.NewServer(fl)
	defer srv.Close()
	user := env.UserNames[0]

	// Two held-open SSE streams pin one in-flight request each on the two
	// least-loaded replicas; the next request must land on the idle third.
	var pinned []string
	for i := 0; i < 2; i++ {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/api/events?widgets=system_status", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(auth.UserHeader, user)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %d: status %d", i, resp.StatusCode)
		}
		pinned = append(pinned, resp.Header.Get(fleetReplicaHeaderKey))
	}
	if pinned[0] == pinned[1] {
		t.Fatalf("both streams pinned to %s; least-conn should spread", pinned[0])
	}
	rec := fleetGet(t, fl, user, "/api/system_status", "")
	got := rec.Header().Get(fleetReplicaHeaderKey)
	if got == pinned[0] || got == pinned[1] {
		t.Fatalf("poll routed to busy replica %s (streams hold %v)", got, pinned)
	}
}

func TestLBStickyAffinityAndFailover(t *testing.T) {
	env, fl := newTestFleet(t, 3, PolicySticky, nil)
	user := env.UserNames[0]

	first := fleetGet(t, fl, user, "/api/system_status", "").Header().Get(fleetReplicaHeaderKey)
	for i := 0; i < 4; i++ {
		if got := fleetGet(t, fl, user, "/api/system_status", "").Header().Get(fleetReplicaHeaderKey); got != first {
			t.Fatalf("sticky user bounced %s -> %s", first, got)
		}
	}

	// The population spreads: not every user sticks to the same replica.
	distinct := map[string]bool{}
	for _, u := range env.UserNames {
		distinct[fleetGet(t, fl, u, "/api/system_status", "").Header().Get(fleetReplicaHeaderKey)] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d users stuck to one replica", len(env.UserNames))
	}

	// Kill the user's replica: passive failover moves them to a stable
	// fallback with no error surfaced.
	if err := fl.Kill(first); err != nil {
		t.Fatal(err)
	}
	rec := fleetGet(t, fl, user, "/api/system_status", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-kill status %d", rec.Code)
	}
	fallback := rec.Header().Get(fleetReplicaHeaderKey)
	if fallback == first || fallback == "" {
		t.Fatalf("failover picked %q (killed %q)", fallback, first)
	}
	for i := 0; i < 3; i++ {
		if got := fleetGet(t, fl, user, "/api/system_status", "").Header().Get(fleetReplicaHeaderKey); got != fallback {
			t.Fatalf("failover not sticky: %s -> %s", fallback, got)
		}
	}
	if fl.met.lbFailovers.Value() == 0 {
		t.Fatal("failover counter never incremented")
	}
}

func TestPeerServesOwnerBytesWithMatchingETag(t *testing.T) {
	env, fl := newTestFleet(t, 2, PolicyRoundRobin, nil)
	user := env.UserNames[0]
	ownerID := fl.Owner("system_status")
	var peerID string
	for _, id := range fl.Replicas() {
		if id != ownerID {
			peerID = id
		}
	}
	owner, peer := fl.Server(ownerID), fl.Server(peerID)

	ownerRec := fleetGet(t, owner, user, "/api/system_status", "")
	if ownerRec.Code != http.StatusOK || ownerRec.Header().Get("X-Ooddash-Fleet") != "" {
		t.Fatalf("owner serve: status %d fleet header %q", ownerRec.Code, ownerRec.Header().Get("X-Ooddash-Fleet"))
	}
	peerRec := fleetGet(t, peer, user, "/api/system_status", "")
	if peerRec.Code != http.StatusOK {
		t.Fatalf("peer serve: status %d", peerRec.Code)
	}
	if peerRec.Header().Get("X-Ooddash-Fleet") != "peer" {
		t.Fatal("peer response not marked as fleet-served")
	}
	if peerRec.Body.String() != ownerRec.Body.String() {
		t.Fatalf("peer bytes differ from owner bytes:\n%q\nvs\n%q", peerRec.Body.String(), ownerRec.Body.String())
	}
	etag := ownerRec.Header().Get("Etag")
	if etag == "" || peerRec.Header().Get("Etag") != etag {
		t.Fatalf("etag mismatch: owner %q peer %q", etag, peerRec.Header().Get("Etag"))
	}

	// A client that validated against the owner revalidates against the
	// peer — cross-replica 304.
	if rec := fleetGet(t, peer, user, "/api/system_status", etag); rec.Code != http.StatusNotModified {
		t.Fatalf("peer revalidation status %d, want 304", rec.Code)
	}

	// The peer never scheduled the source: exactly one replica polls it.
	if err := fl.CheckExclusiveOwnership(); err != nil {
		t.Fatal(err)
	}
	for _, key := range peer.PushSourceKeys() {
		if key == "system_status" {
			t.Fatal("non-owner replica scheduled system_status")
		}
	}
	found := false
	for _, key := range owner.PushSourceKeys() {
		if key == "system_status" {
			found = true
		}
	}
	if !found {
		t.Fatal("owner replica did not schedule system_status")
	}
}

func TestPerUserWidgetKeepsPrivateCacheClassOnPeer(t *testing.T) {
	env, fl := newTestFleet(t, 2, PolicyRoundRobin, nil)
	user := env.UserNames[1]
	key := "recent_jobs:" + user
	ownerID := fl.Owner(key)
	var peer *core.Server
	for _, id := range fl.Replicas() {
		if id != ownerID {
			peer = fl.Server(id)
		}
	}
	rec := fleetGet(t, peer, user, "/api/recent_jobs", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Header().Get("X-Ooddash-Fleet") != "peer" {
		t.Fatal("expected peer-served response")
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "private" {
		t.Fatalf("Cache-Control = %q, want private", cc)
	}
	if vary := rec.Header().Get("Vary"); vary != auth.UserHeader {
		t.Fatalf("Vary = %q, want %s", vary, auth.UserHeader)
	}
}

func TestPropagationFeedsPeerSSE(t *testing.T) {
	env, fl := newTestFleet(t, 2, PolicyRoundRobin, nil)
	user := env.UserNames[0]
	key := "recent_jobs:" + user
	ownerID := fl.Owner(key)
	var peerID string
	for _, id := range fl.Replicas() {
		if id != ownerID {
			peerID = id
		}
	}
	peerSrv := httptest.NewServer(fl.Server(peerID))
	defer peerSrv.Close()

	b := browser.New(user, peerSrv.URL, nil, env.Clock)
	events := make(chan push.Event, 64)
	st, err := b.OpenEventStream(browser.HomepageWidgets(), func(ev push.Event) { events <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Subscribe-time replay primes the stream (the peer ensures fresh
	// snapshots via the owners).
	drainUntil(t, events, "recent_jobs", 5*time.Second)

	// New upstream work must reach the peer-held stream purely via
	// owner refresh + fleet propagation.
	if _, err := env.Cluster.Ctl.Submit(slurm.SubmitRequest{
		User: user, Account: "grp01", Partition: "cpu", QOS: "normal",
		TimeLimit: time.Hour, ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024},
	}); err != nil {
		t.Fatal(err)
	}
	env.Clock.Advance(80 * time.Second)
	env.Cluster.Ctl.Tick()
	fl.Tick()
	drainUntil(t, events, "recent_jobs", 5*time.Second)

	if fl.met.propagations.Value() == 0 {
		t.Fatal("no propagations recorded")
	}
	if err := fl.CheckExclusiveOwnership(); err != nil {
		t.Fatal(err)
	}
}

func drainUntil(t *testing.T, events <-chan push.Event, name string, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev := <-events:
			if ev.Name == name {
				return
			}
		case <-deadline:
			t.Fatalf("no %q event within %v", name, timeout)
		}
	}
}

func TestJoinRebalancesOwnership(t *testing.T) {
	env, fl := newTestFleet(t, 1, PolicyRoundRobin, nil)
	// Touch a spread of sources so there is ownership to move.
	for i := 0; i < 6; i++ {
		fleetGet(t, fl, env.UserNames[i], "/api/recent_jobs", "")
	}
	fleetGet(t, fl, env.UserNames[0], "/api/system_status", "")
	only := fl.Replicas()[0]
	before := len(fl.Server(only).PushSourceKeys())
	if before == 0 {
		t.Fatal("no sources registered before join")
	}

	id, err := fl.Join()
	if err != nil {
		t.Fatal(err)
	}
	after := len(fl.Server(only).PushSourceKeys())
	taken := len(fl.Server(id).PushSourceKeys())
	if taken == 0 {
		t.Fatalf("joined replica took no sources (%d keys total)", before)
	}
	if after+taken != before {
		t.Fatalf("sources lost in rebalance: %d -> %d + %d", before, after, taken)
	}
	if err := fl.CheckExclusiveOwnership(); err != nil {
		t.Fatal(err)
	}
	if fl.met.ownerChanges.Value() == 0 {
		t.Fatal("owner-change counter never incremented")
	}
	// The newcomer's sources were refreshed at handover: its store can
	// serve them and a poll through the LB succeeds wherever it lands.
	for i := 0; i < 4; i++ {
		if rec := fleetGet(t, fl, env.UserNames[0], "/api/recent_jobs", ""); rec.Code != http.StatusOK {
			t.Fatalf("post-join poll %d: status %d", i, rec.Code)
		}
	}
}

func TestNoLiveReplicas(t *testing.T) {
	env, fl := newTestFleet(t, 2, PolicyRoundRobin, nil)
	for _, id := range fl.Replicas() {
		if err := fl.Kill(id); err != nil {
			t.Fatal(err)
		}
	}
	rec := fleetGet(t, fl, env.UserNames[0], "/api/system_status", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 when the whole fleet is dead", rec.Code)
	}
}

func TestFleetMetricsExposition(t *testing.T) {
	env, fl := newTestFleet(t, 2, PolicyRoundRobin, nil)
	fleetGet(t, fl, env.UserNames[0], "/api/system_status", "")
	rec := httptest.NewRecorder()
	if err := fl.Metrics().WritePrometheus(rec); err != nil {
		t.Fatal(err)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"ooddash_fleet_replicas_live 2",
		"ooddash_fleet_lb_requests_total",
		"ooddash_fleet_upstream_rpcs_total",
		"ooddash_fleet_slo_burn_rate",
		"ooddash_fleet_slo_alert_state",
		"ooddash_fleet_slo_budget_spent_ratio",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	obstest.Validate(t, body)
}

// sloFleetObjectives are tight-window objectives for the dual-view test:
// one page rule that fires after a minute of sustained burn.
func sloFleetObjectives() []slo.Objective {
	return []slo.Objective{{
		Name: "availability", Kind: slo.KindAvailability, Target: 0.9,
		Rules: []slo.Rule{{
			Name: "page", Severity: "page", Burn: 2,
			Short: 2 * time.Minute, Long: 5 * time.Minute,
			For: time.Minute, KeepFor: time.Minute,
		}},
	}}
}

// TestSLOFleetDualView drives one replica's SLIs into sustained burn while
// its peers stay healthy: the replica-local page alert must fire while the
// fleet-level objective — pooled across all replicas — stays met. Then the
// whole fleet burns and the aggregated alert must fire too. Both views stay
// queryable side by side throughout.
func TestSLOFleetDualView(t *testing.T) {
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	newsSrv := httptest.NewServer(env.Feed)
	t.Cleanup(newsSrv.Close)
	fl, err := New(Options{
		Replicas:         3,
		Policy:           PolicyRoundRobin,
		Clock:            env.Clock,
		Runner:           env.Runner,
		HeartbeatTimeout: 40 * time.Second,
		Build: func(id string, r slurmcli.Runner) (*core.Server, error) {
			// SLO recording disabled: the script records synthetic SLI
			// events directly, so incidental request traffic can't skew the
			// windows. The aggregator copies these tight objectives from
			// replica r0's engine.
			return env.NewServerRunner(newsSrv.URL, core.Config{
				Push: core.PushConfig{DisableIdlePause: true, Jitter: -1},
				SLO:  core.SLOConfig{Disabled: true, Objectives: sloFleetObjectives()},
			}, r)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	burner := fl.Server("r0").SLO()
	peers := []*slo.Engine{fl.Server("r1").SLO(), fl.Server("r2").SLO()}

	record := func(eng *slo.Engine, n int, status int) {
		for i := 0; i < n; i++ {
			eng.Record(0.001, status, false, "")
		}
	}

	// Phase 1: r0 burns hard (every request 500), peers serve clean traffic
	// that keeps the pooled bad fraction inside the fleet budget.
	for step := 0; step < 4; step++ {
		record(burner, 10, 500)
		for _, p := range peers {
			record(p, 200, 200)
		}
		env.Clock.Advance(time.Minute)
		fl.Tick()
	}

	localSt := fl.Server("r0").SLO().Status()
	fleetSt := fl.SLOStatus()
	localAlert := localSt.Objectives[0].Alerts[0]
	fleetAlert := fleetSt.Objectives[0].Alerts[0]
	if localAlert.State != "firing" {
		t.Fatalf("replica-local page alert = %q, want firing (short burn %.1f, long burn %.1f)",
			localAlert.State, localAlert.ShortBurn, localAlert.LongBurn)
	}
	if fleetAlert.State != "inactive" {
		t.Fatalf("fleet page alert = %q, want inactive while only one replica burns (short burn %.2f)",
			fleetAlert.State, fleetAlert.ShortBurn)
	}
	if fleetSt.Objectives[0].Budget.Bad == 0 {
		t.Fatal("fleet budget ledger should still count the burning replica's bad events")
	}

	// Phase 2: the whole fleet burns; the pooled view must fire as well.
	for step := 0; step < 8; step++ {
		record(burner, 10, 500)
		for _, p := range peers {
			record(p, 200, 500)
		}
		env.Clock.Advance(time.Minute)
		fl.Tick()
	}
	if st := fl.SLOStatus().Objectives[0].Alerts[0]; st.State != "firing" {
		t.Fatalf("fleet page alert = %q after fleet-wide burn, want firing (short %.2f long %.2f)",
			st.State, st.ShortBurn, st.LongBurn)
	}
	if fired, _, ok := fl.SLO().AlertCounts("availability", "page"); !ok || fired < 1 {
		t.Fatalf("fleet AlertCounts(availability, page) = %d/%v, want fired >= 1", fired, ok)
	}
	// The replica view is unchanged by fleet evaluation: still its own.
	if _, _, ok := fl.Server("r0").SLO().AlertCounts("availability", "page"); !ok {
		t.Fatal("replica-local alert counts must stay queryable")
	}
}
