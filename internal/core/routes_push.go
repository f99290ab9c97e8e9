package core

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/obs"
	"ooddash/internal/push"
)

// This file wires the live-update push subsystem (internal/push) into the
// dashboard: the SSE fan-out on GET /api/events, the per-widget refresh
// sources the background scheduler re-fetches on their cache TTL cadence,
// and the server lifecycle hooks (StartPush / TickPush / Close).
//
// A refresh is a loopback request through the server's own mux, so it takes
// exactly the route's normal path — auth, cache fill, resilience policy,
// degraded annotation — and costs upstream exactly what one cache-missing
// poll would. Connected SSE clients then receive the bytes the polling
// route would have served them, without issuing requests of their own:
// upstream cost becomes O(sources), not O(clients).

// pushRoute describes one push-enabled widget: the polling route the
// refresh scheduler re-fetches, whether its payload is per-user, and its
// refresh cadence (the widget's server cache TTL).
type pushRoute struct {
	widget  string
	path    string
	perUser bool
	ttl     time.Duration
}

// key returns the scheduler/hub source key for this route and user.
func (pr pushRoute) key(user string) string {
	if pr.perUser {
		return pr.widget + ":" + user
	}
	return pr.widget
}

// buildPushRoutes derives the push-enabled route table from the configured
// TTLs. Cluster-wide widgets share one source across all subscribers;
// per-user widgets get one source per subscribed user (paused when that
// user has no open stream).
func (s *Server) buildPushRoutes() map[string]pushRoute {
	ttls := s.cfg.TTLs
	routes := map[string]pushRoute{
		"announcements":  {widget: "announcements", path: "/api/announcements", ttl: ttls.Announcements},
		"system_status":  {widget: "system_status", path: "/api/system_status", ttl: ttls.SystemStatus},
		"cluster_status": {widget: "cluster_status", path: "/api/cluster_status", ttl: ttls.ClusterNodes},
		"recent_jobs":    {widget: "recent_jobs", path: "/api/recent_jobs", perUser: true, ttl: ttls.RecentJobs},
		"accounts":       {widget: "accounts", path: "/api/accounts", perUser: true, ttl: ttls.Accounts},
		"storage":        {widget: "storage", path: "/api/storage", perUser: true, ttl: ttls.Storage},
		"my_jobs":        {widget: "my_jobs", path: "/api/myjobs", perUser: true, ttl: ttls.JobHistory},
	}
	return routes
}

// pushRefreshHeader marks scheduler-issued loopback requests so access logs
// can tell background refreshes from client traffic.
const pushRefreshHeader = "X-OODDash-Push"

// loopbackRecorder captures one internal request's response without a
// network round-trip (a minimal httptest.ResponseRecorder, kept local so
// the serving path does not depend on a test package). Recorders are pooled:
// a refresh fires for every push source on every TTL expiry, and the header
// map plus body buffer are pure scratch between refreshes. Callers that
// retain response bytes past release must copy them out first.
type loopbackRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

var recorderPool = sync.Pool{
	New: func() any { return &loopbackRecorder{header: make(http.Header)} },
}

func newLoopbackRecorder() *loopbackRecorder {
	rec := recorderPool.Get().(*loopbackRecorder)
	rec.status = http.StatusOK
	return rec
}

func (l *loopbackRecorder) release() {
	clear(l.header)
	l.body.Reset()
	recorderPool.Put(l)
}

func (l *loopbackRecorder) Header() http.Header         { return l.header }
func (l *loopbackRecorder) WriteHeader(code int)        { l.status = code }
func (l *loopbackRecorder) Write(p []byte) (int, error) { return l.body.Write(p) }
func (l *loopbackRecorder) Flush()                      {}

// pushFetch builds the scheduler fetch for one route: a loopback GET
// through the server's own mux as the given user. Cluster-wide widgets
// capture the first subscriber's identity; their payloads are
// user-independent, the credential is only needed to pass the route's auth
// check.
func (s *Server) pushFetch(route pushRoute, user string) push.FetchFunc {
	return func(ctx context.Context) ([]byte, bool, error) {
		// Root the refresh in its own trace, origin "push": the loopback
		// request carries the minted ID in the trace header so the instrument
		// middleware joins this trace as a child "http" span instead of
		// minting an orphaned root it would misattribute to client traffic.
		id := obs.NewTraceID()
		tctx, sp := s.tracer.StartRoot(ctx, id, "push.refresh", route.widget, "push")
		req, err := http.NewRequestWithContext(tctx, http.MethodGet, route.path, nil)
		if err != nil {
			sp.End()
			return nil, false, err
		}
		// No Accept-Encoding: the hub ships the identity bytes to every
		// subscriber, so the refresh must not receive a rendered gzip copy.
		req.Header.Set(auth.UserHeader, user)
		req.Header.Set("Accept", "application/json")
		req.Header.Set(pushRefreshHeader, "refresh")
		if sp != nil {
			req.Header[traceHeaderKey] = []string{id}
		}
		rec := newLoopbackRecorder()
		defer rec.release()
		s.mux.ServeHTTP(rec, req)
		degraded := rec.header.Get(degradedHeader) != ""
		if sp != nil {
			sp.SetAttr("status", statusLabel(rec.status))
			s.tracer.Finish(sp, rec.status != http.StatusOK, degraded)
		}
		if rec.status != http.StatusOK {
			return nil, false, fmt.Errorf("core: push refresh %s: status %d: %.120s",
				route.path, rec.status, rec.body.Bytes())
		}
		// The hub retains the payload; the recorder is about to be reused, so
		// hand over an exact-size copy rather than a view into its buffer.
		payload := bytes.TrimRight(rec.body.Bytes(), "\n")
		return append([]byte(nil), payload...), degraded, nil
	}
}

// handleEvents dispatches /api/events: an SSE request (Accept:
// text/event-stream or an explicit ?widgets= subscription) gets the
// live-update stream; anything else gets the legacy delta-poll feed.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	wantsSSE := strings.Contains(r.Header.Get("Accept"), "text/event-stream") ||
		r.URL.Query().Get("widgets") != ""
	if wantsSSE && !s.cfg.Push.Disabled {
		s.handleEventStream(w, r)
		return
	}
	s.handleEventsPoll(w, r)
}

// parseSubscription resolves the requested widget set against the
// push-enabled table, returning routes in deterministic order.
func (s *Server) parseSubscription(r *http.Request) ([]pushRoute, error) {
	names := pushWidgets
	if raw := r.URL.Query().Get("widgets"); raw != "" {
		names = strings.Split(raw, ",")
	}
	seen := make(map[string]bool, len(names))
	routes := make([]pushRoute, 0, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		route, ok := s.pushRoutes[n]
		if !ok || !slices.Contains(pushWidgets, n) {
			return nil, fmt.Errorf("%w: widget %q is not push-enabled", errBadRequest, n)
		}
		routes = append(routes, route)
	}
	if len(routes) == 0 {
		return nil, fmt.Errorf("%w: empty widget subscription", errBadRequest)
	}
	sort.Slice(routes, func(i, j int) bool { return routes[i].widget < routes[j].widget })
	return routes, nil
}

// lastEventID reads the client's resume position: the standard
// Last-Event-ID header (set by EventSource on reconnect), with a
// ?last_event_id= fallback for clients that cannot set headers.
func lastEventID(r *http.Request) int64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || id < 0 {
		return 0
	}
	return id
}

// handleEventStream is the SSE endpoint: it registers refresh sources for
// the subscribed widgets, replays current snapshots newer than the
// client's Last-Event-ID, then streams every new version until the client
// disconnects or the server shuts down.
func (s *Server) handleEventStream(w http.ResponseWriter, r *http.Request) {
	user, err := s.currentUser(r)
	if err != nil {
		writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, fmt.Errorf("core: event stream: response writer cannot flush"))
		return
	}
	routes, err := s.parseSubscription(r)
	if err != nil {
		writeError(w, err)
		return
	}

	// Register each source (idempotent) and make sure a current snapshot
	// exists, so a fresh client paints immediately. The synchronous refresh
	// rides the server cache: when another subscriber already keeps the
	// source warm this costs no upstream call. A failed refresh (cold
	// source during an outage) leaves the stream open; events begin when
	// the source recovers.
	fd := s.fleetDelegate()
	keys := make([]string, 0, len(routes))
	for _, route := range routes {
		key := route.key(user.Name)
		keys = append(keys, key)
		if fd != nil {
			// In a fleet, the key's owner (which may be another replica)
			// maintains the source; its snapshots are propagated into this
			// replica's hub, so the stream below works unchanged. Touch
			// records interest; Ensure additionally produces the initial
			// snapshot when the local hub has none yet.
			src := fleetSource(route, user.Name)
			if _, ok := s.pushHub.Latest(key); !ok {
				_, _ = fd.Ensure(r.Context(), src)
			} else {
				fd.Touch(src)
			}
			continue
		}
		if _, err := s.pushSched.Register(push.Source{
			Widget: route.widget,
			Key:    key,
			TTL:    route.ttl,
			Fetch:  s.pushFetch(route, user.Name),
		}); err != nil {
			writeError(w, err)
			return
		}
		if _, ok := s.pushHub.Latest(key); !ok {
			_, _ = s.pushSched.Refresh(r.Context(), key)
		}
	}

	sub := s.pushHub.Subscribe(keys)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// Events go out identity: push payloads are small widget bodies, and a
	// compressed stream would have to be flushed per event anyway.
	enc := push.NewEncoder(w)

	// Resume/initial replay: every subscribed widget's current snapshot
	// the client has not seen yet, in version order.
	for _, snap := range s.pushHub.Since(lastEventID(r), keys) {
		if err := enc.WriteEvent(snap.Widget, snap.Version, snap.Payload); err != nil {
			return
		}
	}
	flusher.Flush()

	// Heartbeats are wall-clock: they exist to keep real sockets and
	// proxies alive, independent of the (possibly simulated) data clock.
	var hbC <-chan time.Time
	if s.cfg.Push.Heartbeat > 0 {
		hb := time.NewTicker(s.cfg.Push.Heartbeat)
		defer hb.Stop()
		hbC = hb.C
	}

	shutdown := func() {
		_ = enc.WriteEvent("shutdown", 0, []byte(`{"reason":"server closing"}`))
		flusher.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.pushDone:
			shutdown()
			return
		case <-sub.Done():
			shutdown()
			return
		case <-hbC:
			if err := enc.WriteComment("hb"); err != nil {
				return
			}
			flusher.Flush()
		case <-sub.Ready():
			for {
				snap, ok := sub.Pop()
				if !ok {
					break
				}
				if err := enc.WriteEvent(snap.Widget, snap.Version, snap.Payload); err != nil {
					return
				}
			}
			flusher.Flush()
		}
	}
}

// StartPush begins background refreshing on a wall-clock loop that checks
// source due-times every interval, and starts the periodic cache purge
// sweep (which runs even with push disabled — a poll-only server still
// accumulates cache entries). Production servers call this once; tests and
// the loadgen smoke mode drive TickPush on the simulated clock instead.
func (s *Server) StartPush(interval time.Duration) {
	s.startPurgeLoop()
	if s.cfg.Push.Disabled {
		return
	}
	s.pushSched.Run(interval)
}

// TickPush runs every due background refresh synchronously and reports how
// many sources were fetched. Call after advancing the shared simulated
// clock. It also runs the cache purge sweep when one is due on that clock.
func (s *Server) TickPush() int {
	s.maybePurge()
	n := s.pushSched.Tick()
	// Advance the SLO alert state machines after the refreshes so events
	// this tick produced are visible to the evaluation at the new clock
	// reading. (Wall-clock servers also evaluate lazily on every
	// /api/admin/slo and /metrics read — Status is self-evaluating.)
	s.sloEng.Evaluate()
	return n
}

// PushHub exposes the snapshot hub for tests and experiments.
func (s *Server) PushHub() *push.Hub { return s.pushHub }

// PushScheduler exposes the refresh scheduler for tests and experiments.
func (s *Server) PushScheduler() *push.Scheduler { return s.pushSched }

// Close shuts the push subsystem down: the refresh scheduler stops, every
// SSE stream receives a final "shutdown" event and ends, and the hub
// rejects further publishes. The server remains able to serve plain HTTP
// requests (the push path simply reports closed). Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.pushDone)
		s.pushSched.Close()
		s.pushHub.Close()
	})
}
