package core

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"ooddash/internal/etag"
	"ooddash/internal/push"
)

// This file is the core side of the scale-out fleet tier (internal/fleet):
// the delegate interface a fleet controller installs on each replica, the
// snapshot form rendered widget responses propagate in, and the request
// interception that lets a non-owner replica answer a push-enabled widget
// poll from peer-propagated bytes instead of fetching upstream.
//
// Ownership is per source key (widget, or "widget:user"): the fleet's
// consistent-hash ring assigns each key to exactly one replica, whose
// background scheduler polls the upstream once per TTL. Every other replica
// serves the owner's rendered bytes — with the exact ETag the owner would
// have produced, so a client revalidating against any replica still gets
// its 304s — and falls back to a synchronous owner refresh (Ensure) when
// the propagated copy has aged out, or to a degraded stale serve when the
// owner is unreachable.

// FleetSource identifies one push-enabled refresh source to the fleet:
// everything a replica needs to register and re-fetch it locally.
type FleetSource struct {
	Widget  string        // event/widget name ("system_status", ...)
	Key     string        // scheduler/hub key (Widget, or "widget:user")
	Path    string        // polling route the loopback refresh fetches
	User    string        // identity the refresh runs as
	PerUser bool          // payload varies by user (private cache class)
	TTL     time.Duration // refresh cadence = the widget's cache TTL
}

// FleetSnapshot is one rendered widget response in propagation form: the
// exact HTTP body (trailing newline included) plus the strong ETag computed
// over it, so a peer-served response is byte- and tag-identical to what the
// owner's own rendered path would have written.
type FleetSnapshot struct {
	Widget   string
	Key      string
	Body     []byte // exact response body, including the trailing newline
	ETag     string
	Degraded bool
	Version  int64     // hub version on the owning replica
	At       time.Time // when the owner last refreshed (freshness clock)
}

// Payload returns the hub/SSE form of the body (trailing newline trimmed),
// suitable for republishing into a peer replica's hub.
func (f FleetSnapshot) Payload() []byte {
	if n := len(f.Body); n > 0 && f.Body[n-1] == '\n' {
		return f.Body[:n-1]
	}
	return f.Body
}

// NewFleetSnapshot converts a hub snapshot into propagation form, stamping
// the refresh time the freshness window is measured from.
func NewFleetSnapshot(snap push.Snapshot, at time.Time) FleetSnapshot {
	body := make([]byte, 0, len(snap.Payload)+1)
	body = append(append(body, snap.Payload...), '\n')
	return FleetSnapshot{
		Widget:   snap.Widget,
		Key:      snap.Key,
		Body:     body,
		ETag:     etag.For(body),
		Degraded: snap.Degraded,
		Version:  snap.Version,
		At:       at,
	}
}

// FleetDelegate is what a fleet controller installs on a replica via
// SetFleet. All methods are called on request paths and must be safe for
// concurrent use.
type FleetDelegate interface {
	// Owns reports whether this replica is the current refresh owner of key.
	Owns(key string) bool
	// Snapshot returns the newest peer-propagated snapshot for key, if any.
	Snapshot(key string) (FleetSnapshot, bool)
	// Ensure makes the key's owner produce a current snapshot (registering
	// the source there first if needed) and returns it. ok is false when no
	// live owner could serve — the caller then degrades or serves locally.
	Ensure(ctx context.Context, src FleetSource) (FleetSnapshot, bool)
	// Touch records client interest in src (bookkeeping for idle reaping)
	// and registers it with the current owner's scheduler if it is new.
	Touch(src FleetSource)
}

// fleetHolder wraps the delegate so it can live in an atomic.Pointer.
type fleetHolder struct{ d FleetDelegate }

// SetFleet installs (or, with nil, removes) the fleet delegate. Safe to
// call while the server is serving; requests observe the change atomically.
func (s *Server) SetFleet(d FleetDelegate) {
	if d == nil {
		s.fleet.Store(nil)
		return
	}
	s.fleet.Store(&fleetHolder{d: d})
}

// fleetDelegate returns the installed delegate, or nil outside a fleet.
func (s *Server) fleetDelegate() FleetDelegate {
	if h := s.fleet.Load(); h != nil {
		return h.d
	}
	return nil
}

// fleetSource builds the FleetSource for a push route and user.
func fleetSource(route pushRoute, user string) FleetSource {
	return FleetSource{
		Widget:  route.widget,
		Key:     route.key(user),
		Path:    route.path,
		User:    user,
		PerUser: route.perUser,
		TTL:     route.ttl,
	}
}

// RegisterPushSource registers src with the background refresh scheduler
// (idempotent). The fleet controller calls this on the replica that owns
// src's key.
func (s *Server) RegisterPushSource(src FleetSource) error {
	route := pushRoute{widget: src.Widget, path: src.Path, perUser: src.PerUser, ttl: src.TTL}
	_, err := s.pushSched.Register(push.Source{
		Widget: src.Widget,
		Key:    src.Key,
		TTL:    src.TTL,
		Fetch:  s.pushFetch(route, src.User),
	})
	return err
}

// RefreshPushSource re-fetches a registered source immediately and returns
// the result in propagation form. The source must have been registered.
func (s *Server) RefreshPushSource(ctx context.Context, key string) (FleetSnapshot, error) {
	snap, err := s.pushSched.Refresh(ctx, key)
	if err != nil {
		return FleetSnapshot{}, err
	}
	return NewFleetSnapshot(snap, s.clock.Now()), nil
}

// UnregisterPushSource removes a source from the refresh scheduler and
// reports whether it was registered (ownership moved away, or idle reap).
func (s *Server) UnregisterPushSource(key string) bool {
	return s.pushSched.Unregister(key)
}

// PushSourceKeys lists the keys the background scheduler currently polls.
func (s *Server) PushSourceKeys() []string { return s.pushSched.Keys() }

// fleetFreshFor is the peer-serve freshness window: one TTL for the data
// itself plus half a TTL of slack for scheduler jitter and propagation
// batching. Beyond it the peer synchronously re-ensures via the owner.
func fleetFreshFor(ttl time.Duration) time.Duration { return ttl + ttl/2 }

// fleetHeaderKey labels responses served from peer-propagated bytes, in
// canonical MIME form for direct map assignment (wire: X-Ooddash-Fleet).
const fleetHeaderKey = "X-Ooddash-Fleet"

var fleetPeerValue = []string{"peer"}

// fleetIntercept wraps a push-enabled widget handler with the fleet serving
// policy. Outside a fleet (no delegate installed) it is a transparent
// pass-through; inside one:
//
//   - the key's owner serves locally as always (its cache is the source of
//     truth) after recording client interest via Touch;
//   - a non-owner serves the peer-propagated bytes while they are fresh,
//     synchronously ensures a current snapshot via the owner when they are
//     not, serves the stale copy marked degraded when the owner is
//     unreachable, and only falls through to a local upstream fetch when it
//     has nothing at all to serve (cold key during an owner outage —
//     availability beats strict ownership).
//
// Only plain widget polls are intercepted: GET, no query string, the
// route's exact path, and not a scheduler loopback refresh (those must
// reach the real fetch path — they are how owners produce snapshots).
func (s *Server) fleetIntercept(widget string, next http.HandlerFunc) http.HandlerFunc {
	route, pushable := s.pushRoutes[widget]
	if !pushable {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		fd := s.fleetDelegate()
		if fd == nil || r.Method != http.MethodGet || r.URL.RawQuery != "" ||
			r.URL.Path != route.path || len(r.Header[pushRefreshHeaderKey]) != 0 {
			next(w, r)
			return
		}
		user, err := s.currentUser(r)
		if err != nil {
			next(w, r) // let the route produce its own auth error
			return
		}
		src := fleetSource(route, user.Name)
		if fd.Owns(src.Key) {
			fd.Touch(src)
			next(w, r)
			return
		}
		snap, ok := fd.Snapshot(src.Key)
		if ok && s.clock.Now().Sub(snap.At) <= fleetFreshFor(route.ttl) {
			// A degraded copy inside the window still serves directly (with
			// the degraded header): the owner is already stale-serving, and
			// re-ensuring on every peer request would only multiply loopbacks.
			s.writeFleetSnapshot(w, r, route, snap, false)
			s.obsm.fleetPeerServes.With(widget, "fresh").Inc()
			return
		}
		if es, eok := fd.Ensure(r.Context(), src); eok {
			s.writeFleetSnapshot(w, r, route, es, false)
			s.obsm.fleetPeerServes.With(widget, "ensured").Inc()
			return
		}
		if ok {
			s.writeFleetSnapshot(w, r, route, snap, true)
			s.obsm.fleetPeerServes.With(widget, "stale").Inc()
			return
		}
		// No owner and no propagated copy: serve locally rather than fail.
		s.obsm.fleetPeerServes.With(widget, "local").Inc()
		next(w, r)
	}
}

// writeFleetSnapshot writes a propagated snapshot as the widget response,
// with the same conditional-request and cache-class semantics as the
// owner's rendered path: strong ETag plus If-None-Match 304s for current
// payloads, the degraded header (and no ETag) for degraded or aged-out
// ones, and the private/Vary cache class on per-user routes. Snapshots go
// out identity: they carry no stored gzip copy, so compressing here would
// cost CPU on every peer-served request.
func (s *Server) writeFleetSnapshot(w http.ResponseWriter, r *http.Request, route pushRoute, snap FleetSnapshot, stale bool) {
	h := w.Header()
	if route.perUser {
		setPrivateCache(h)
	}
	h[fleetHeaderKey] = fleetPeerValue
	if snap.Degraded || stale {
		h.Set(degradedHeader, "stale")
	} else {
		setETag(h, snap.ETag)
		if etag.Match(r.Header.Get("If-None-Match"), snap.ETag) {
			w.WriteHeader(http.StatusNotModified)
			s.obsm.notModified.With(route.widget).Inc()
			return
		}
	}
	h["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(snap.Body)
}

// fleetPtr is the concrete atomic holder type (declared here, next to its
// accessors; the field lives on Server).
type fleetPtr = atomic.Pointer[fleetHolder]
