package core

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"ooddash/internal/auth"
	"ooddash/internal/etag"
)

// The rendered-response layer is the serving half of the paper's §2.4
// performance story. The server cache in internal/cache saves the *upstream*
// cost of a widget request (the Slurm command), but the original hit path
// still paid the full *render* cost on every request: rebuild the view model
// from parsed structs, json.Marshal it, and hash an ETag — work that is
// byte-for-byte identical for every request between two cache fills. At
// dashboard scale (ROADMAP north star; EELA's standalone-dashboard
// experience) that render cost dominates.
//
// serveRendered materializes each widget payload once per cache fill: the
// final JSON bytes (trailing newline included) and the precomputed strong
// ETag are stored in a second cache keyed by (widget, user variant, request
// URI) and guarded by the source data's revision number (fetchMeta.rev, from
// cache.Result.Rev). A hit costs an If-None-Match compare → 304, or a single
// w.Write of the stored bytes. A revision mismatch — the source cache
// refilled — rebuilds and re-stores. Degraded responses and uncacheable
// fetches (rev 0) fall back to the encode-per-request path: their bodies
// change per request (age_seconds) or per compute, so there is nothing to
// materialize.
//
// Per-user routes pass the user name as the variant, so one user's bytes are
// never served to another; authorization always runs before serveRendered.
//
// A body of at least gzipMinBytes is also gzipped once at fill time and
// served, with Content-Encoding: gzip and the weak tag W/"<hash>", to
// requests whose Accept-Encoding accepts gzip; every other request gets the
// plain bytes and the strong tag. Both carry Vary: Accept-Encoding, and
// If-None-Match still compares against the strong tag (etag.Match ignores
// W/), so a tag from either representation revalidates against the other.

const (
	// gzipMinBytes is the smallest body stored with a gzip copy: about one
	// 10-segment initial congestion window. Below it compression saves no
	// round trip, and the Vary and W/ bytes on every 304 cost more than the
	// body shrinks; only My Jobs and Cluster Status bodies reach it.
	gzipMinBytes = 16 << 10
	// gzipLevel trades ratio for fill time: BestSpeed already shrinks the
	// JSON ~10x, and DefaultCompression doubled core's per-page time for a
	// few percent fewer bytes.
	gzipLevel = gzip.BestSpeed
)

// renderedResponse is one materialized widget payload.
type renderedResponse struct {
	rev     uint64   // fetchMeta.rev the body was built from
	body    []byte   // final bytes as written to the wire, trailing '\n' included
	etag    string   // strong ETag of body
	etagVal []string // etag as a ready header value for direct map assignment

	// Set only for bodies of at least gzipMinBytes.
	gz      []byte   // body gzipped once, exact size
	weakVal []string // W/ + etag, the gzip representation's tag
	vary    []string // Vary value for both representations and their 304s
}

// jsonContentType is the Content-Type header value every JSON response
// shares, assigned directly into the header map: Header.Set allocates a
// fresh one-element slice per call. net/http only reads the slice. The
// Content-Encoding and Vary values of gzip-capable entries are shared the
// same way.
var (
	jsonContentType = []string{"application/json"}
	gzipEncoding    = []string{"gzip"}
	// Per-user routes vary on the identity header too (setPrivateCache).
	varyEncoding     = []string{"Accept-Encoding"}
	varyUserEncoding = []string{auth.UserHeader + ", Accept-Encoding"}
)

const contentEncodingHeaderKey = "Content-Encoding"

// marshalPayload is the single choke point for payload encoding; every
// json.Marshal of a widget body goes through it, and the counter it bumps
// is what lets the zero-Marshal-on-hit regression test (and /metrics) prove
// the hit path never re-encodes.
func (s *Server) marshalPayload(v any) ([]byte, error) {
	s.renderEncodes.Add(1)
	return json.Marshal(v)
}

// encodePayload is marshalPayload's streaming twin for callers that encode
// into a pooled scratch buffer: same counter, same output bytes as Marshal
// plus the trailing newline writeJSON's Encoder always produced.
func (s *Server) encodePayload(buf *bytes.Buffer, v any) error {
	s.renderEncodes.Add(1)
	return json.NewEncoder(buf).Encode(v)
}

// RenderEncodes reports how many payload encodes (json.Marshal calls on
// widget bodies) the server has performed — the hook the regression test and
// the hot-path benchmark use to assert encode-once behavior.
func (s *Server) RenderEncodes() int64 { return s.renderEncodes.Load() }

// RenderStats reports rendered-response cache traffic: hits served from
// materialized bytes and misses that had to (re)build.
func (s *Server) RenderStats() (hits, misses int64) {
	return s.renderHits.Load(), s.renderMisses.Load()
}

// renderKey builds the rendered-cache key: widget, user variant, and the
// full request URI (path values and query parameters both shape the body).
// The NUL separators cannot appear in any component, so distinct triples
// never collide.
func renderKey(widget, variant, uri string) string {
	return widget + "\x00" + variant + "\x00" + uri
}

// serveRendered serves a widget payload through the rendered-response cache.
// meta must come from the fetchVia/absorb chain that produced the data;
// variant is the user name for per-user routes, "" for shared ones; build
// constructs the view model (it runs only on a render miss).
//
// Ineligible responses — degraded, uncacheable (rev 0), or with the layer
// turned off by Config.RenderCacheDisabled — build and encode per request
// via writeWidgetJSON, exactly as before this layer existed.
func (s *Server) serveRendered(w http.ResponseWriter, r *http.Request, meta fetchMeta, variant string, build func() (any, error)) {
	if variant != "" {
		// Identity-variant payload: scope any fronting cache to the user
		// before either serving path (materialized bytes, 304, or the
		// per-request fallback) writes headers. See setPrivateCache.
		setPrivateCache(w.Header())
	}
	if meta.Degraded || meta.rev == 0 || meta.ttl <= 0 || s.cfg.RenderCacheDisabled {
		v, err := build()
		if err != nil {
			writeError(w, err)
			return
		}
		s.writeWidgetJSON(w, r, http.StatusOK, meta, v)
		return
	}
	key := renderKey(widgetFromContext(r.Context()), variant, r.URL.RequestURI())
	if cached, ok := s.rendered.Get(key); ok {
		if re, ok := cached.(*renderedResponse); ok && re.rev == meta.rev {
			s.renderHits.Add(1)
			s.writeRendered(w, r, re)
			return
		}
	}
	s.renderMisses.Add(1)
	v, err := build()
	if err != nil {
		writeError(w, err)
		return
	}
	raw, err := s.marshalPayload(v)
	if err != nil {
		writeError(w, fmt.Errorf("core: encoding response: %v", err))
		return
	}
	body := append(raw, '\n')
	re := &renderedResponse{rev: meta.rev, body: body, etag: etag.For(body)}
	re.etagVal = []string{re.etag}
	if len(body) >= gzipMinBytes {
		re.gz = gzipBody(body)
		re.weakVal = []string{"W/" + re.etag}
		re.vary = varyEncoding
		if variant != "" {
			re.vary = varyUserEncoding
		}
	}
	// The body stays valid as long as the source entry it was built from, so
	// it shares the source's TTL; a source refill bumps rev and overwrites.
	s.rendered.Set(key, re, meta.ttl)
	s.writeRendered(w, r, re)
}

// gzipBody compresses body at gzipLevel into an exact-size slice. Each call
// builds its own writer: it runs once per fill, and a pooled writer would
// keep ~1 MB of compressor state alive between fills.
func gzipBody(body []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(body) / 8)
	zw, _ := gzip.NewWriterLevel(&buf, gzipLevel) // gzipLevel is valid
	zw.Write(body)                                // writes to a bytes.Buffer cannot fail
	zw.Close()
	return bytes.Clone(buf.Bytes())
}

// writeRendered is the materialized hit path: set the stored ETag, answer a
// matching If-None-Match with 304, otherwise write the stored bytes (or
// their stored gzip copy) in one call. No view-model build, no Marshal, no
// hash, no compression.
func (s *Server) writeRendered(w http.ResponseWriter, r *http.Request, re *renderedResponse) {
	h := w.Header()
	body, tag := re.body, re.etagVal
	gz := re.gz != nil && requestAcceptsGzip(r.Header["Accept-Encoding"])
	if re.gz != nil {
		h[varyHeaderKey] = re.vary
	}
	if gz {
		body, tag = re.gz, re.weakVal
	}
	h[etagHeaderKey] = tag
	if etag.Match(r.Header.Get("If-None-Match"), re.etag) {
		s.obsm.notModified.With(widgetFromContext(r.Context())).Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Type"] = jsonContentType
	if gz {
		h[contentEncodingHeaderKey] = gzipEncoding
		s.obsm.gzipServed.With(widgetFromContext(r.Context())).Inc()
		s.obsm.gzipBytesSaved.Add(int64(len(re.body) - len(re.gz)))
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// renderCounters groups the rendered-layer atomics embedded in Server.
type renderCounters struct {
	renderHits    atomic.Int64
	renderMisses  atomic.Int64
	renderEncodes atomic.Int64
}
