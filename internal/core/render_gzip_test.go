package core

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ooddash/internal/auth"
	"ooddash/internal/slurm"
)

// largeWidgets are the routes whose bodies reach gzipMinBytes on
// newGzipEnv's cluster, keyed by the widget name their metrics carry.
var largeWidgets = []struct {
	widget, path string
	perUser      bool
}{
	{"cluster_status", "/api/cluster_status", false},
	{"my_jobs", "/api/myjobs?range=7d", true},
}

// homeWidgets are the five homepage routes (Table 1); none reaches
// gzipMinBytes.
var homeWidgets = []string{"/api/announcements", "/api/recent_jobs", "/api/system_status",
	"/api/accounts", "/api/storage"}

// newGzipEnv builds an env big enough for the gzip copies: 120 CPU nodes
// make the Cluster Status grid, and 80 of alice's jobs her My Jobs table,
// larger than gzipMinBytes.
func newGzipEnv(t testing.TB) *env {
	t.Helper()
	cfg := testClusterConfig()
	cfg.Nodes[0].Count = 120
	e := newEnvCluster(t, cfg, nil, nil, nil)
	for i := 0; i < 80; i++ {
		e.submit(slurm.SubmitRequest{Name: fmt.Sprintf("job-%02d", i), User: "alice",
			Account: "lab-a", Partition: "cpu", ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512}})
	}
	return e
}

// serveRec serves an in-process GET as alice with the given extra headers
// (name, value pairs) and returns the recorded response.
func serveRec(e *env, path string, headers ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set(auth.UserHeader, "alice")
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	rec := httptest.NewRecorder()
	e.server.ServeHTTP(rec, req)
	return rec
}

// getSocket performs a GET as alice over the env's loopback socket with Go's
// default transport, which asks for gzip and decodes it transparently.
func getSocket(t *testing.T, e *env, path, ifNoneMatch string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, e.web.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(auth.UserHeader, "alice")
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := e.web.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// variesOn reports whether the Vary field lists name.
func variesOn(h http.Header, name string) bool {
	for _, v := range h.Values("Vary") {
		for _, f := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(f), name) {
				return true
			}
		}
	}
	return false
}

// TestGzipBodyDecodesToIdentityBytes: for each large widget, the body Go's
// default transport decodes over a real socket is byte-identical to the
// identity body, the raw gzip copy inflates to the same bytes, and every
// representation carries Vary: Accept-Encoding with the matching tag.
func TestGzipBodyDecodesToIdentityBytes(t *testing.T) {
	e := newGzipEnv(t)
	for _, lw := range largeWidgets {
		plain := serveRec(e, lw.path)
		if plain.Code != http.StatusOK || len(plain.Body.Bytes()) < gzipMinBytes {
			t.Fatalf("GET %s: status %d, %d bytes; the test needs a 200 of at least %d",
				lw.path, plain.Code, plain.Body.Len(), gzipMinBytes)
		}
		identity := plain.Body.Bytes()
		strong := plain.Header().Get("ETag")
		if plain.Header().Get("Content-Encoding") != "" || !variesOn(plain.Header(), "Accept-Encoding") ||
			strings.HasPrefix(strong, "W/") {
			t.Fatalf("GET %s identity headers: %v", lw.path, plain.Header())
		}
		if variesOn(plain.Header(), auth.UserHeader) != lw.perUser {
			t.Fatalf("GET %s: Vary on %s should be %v: %v", lw.path, auth.UserHeader, lw.perUser, plain.Header())
		}

		resp, decoded := getSocket(t, e, lw.path, "")
		if resp.StatusCode != http.StatusOK || !resp.Uncompressed {
			t.Fatalf("GET %s over the socket: status %d, transport decoded gzip: %v",
				lw.path, resp.StatusCode, resp.Uncompressed)
		}
		if !bytes.Equal(decoded, identity) {
			t.Fatalf("GET %s: decoded gzip body (%d bytes) differs from the identity body (%d bytes)",
				lw.path, len(decoded), len(identity))
		}
		if got := resp.Header.Get("ETag"); got != "W/"+strong || !variesOn(resp.Header, "Accept-Encoding") {
			t.Fatalf("GET %s gzip: ETag %q (want W/%s), Vary %v", lw.path, got, strong, resp.Header.Values("Vary"))
		}

		raw := serveRec(e, lw.path, "Accept-Encoding", "gzip")
		if raw.Header().Get("Content-Encoding") != "gzip" || raw.Body.Len() >= len(identity) {
			t.Fatalf("GET %s gzip: Content-Encoding %q, %d bytes for a %d-byte body",
				lw.path, raw.Header().Get("Content-Encoding"), raw.Body.Len(), len(identity))
		}
		zr, err := gzip.NewReader(raw.Body)
		if err != nil {
			t.Fatal(err)
		}
		if inflated, err := io.ReadAll(zr); err != nil || !bytes.Equal(inflated, identity) {
			t.Fatalf("GET %s: stored gzip copy inflates to %d bytes (err %v), want the identity body",
				lw.path, len(inflated), err)
		}
	}
}

// TestGzipCrossRevalidation: a tag from either representation revalidates
// against the other, and both 304s carry Vary: Accept-Encoding and the tag
// of the representation the request would have received.
func TestGzipCrossRevalidation(t *testing.T) {
	e := newGzipEnv(t)
	for _, lw := range largeWidgets {
		strong := serveRec(e, lw.path).Header().Get("ETag")

		resp, body := getSocket(t, e, lw.path, strong)
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("GET %s gzip with the strong tag: status %d, %d bytes; want 304",
				lw.path, resp.StatusCode, len(body))
		}
		if resp.Header.Get("ETag") != "W/"+strong || !variesOn(resp.Header, "Accept-Encoding") {
			t.Fatalf("GET %s gzip 304 headers: %v", lw.path, resp.Header)
		}

		rec := serveRec(e, lw.path, "If-None-Match", "W/"+strong)
		if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
			t.Fatalf("GET %s identity with the weak tag: status %d; want 304", lw.path, rec.Code)
		}
		if rec.Header().Get("ETag") != strong || !variesOn(rec.Header(), "Accept-Encoding") {
			t.Fatalf("GET %s identity 304 headers: %v", lw.path, rec.Header())
		}
	}
}

// TestGzipLeavesHomepageUnchanged: a homepage body is below gzipMinBytes,
// so asking for gzip changes nothing: same status, headers (less the
// per-request trace ID) and bytes, and no Vary: Accept-Encoding or
// Content-Encoding, on 200s and 304s alike.
func TestGzipLeavesHomepageUnchanged(t *testing.T) {
	e := newGzipEnv(t)
	for _, path := range homeWidgets {
		plain := serveRec(e, path)
		tag := plain.Header().Get("ETag")
		if plain.Code != http.StatusOK || tag == "" {
			t.Fatalf("GET %s: status %d, ETag %q", path, plain.Code, tag)
		}
		for _, c := range []struct {
			name    string
			headers []string
			ref     *httptest.ResponseRecorder
		}{
			{"200", []string{"Accept-Encoding", "gzip"}, plain},
			{"304", []string{"Accept-Encoding", "gzip", "If-None-Match", tag},
				serveRec(e, path, "If-None-Match", tag)},
		} {
			got := serveRec(e, path, c.headers...)
			gh, rh := got.Header().Clone(), c.ref.Header().Clone()
			gh.Del(traceHeaderKey)
			rh.Del(traceHeaderKey)
			if got.Code != c.ref.Code || !bytes.Equal(got.Body.Bytes(), c.ref.Body.Bytes()) ||
				fmt.Sprint(gh) != fmt.Sprint(rh) {
				t.Fatalf("GET %s %s with gzip accepted: %d %v %q\nwithout: %d %v %q", path, c.name,
					got.Code, gh, got.Body.Bytes(), c.ref.Code, rh, c.ref.Body.Bytes())
			}
			if variesOn(gh, "Accept-Encoding") || gh.Get("Content-Encoding") != "" {
				t.Fatalf("GET %s %s: small body negotiated an encoding: %v", path, c.name, gh)
			}
		}
		resp, _ := getSocket(t, e, path, "")
		if resp.Uncompressed || strings.HasPrefix(resp.Header.Get("ETag"), "W/") {
			t.Fatalf("GET %s over the socket came back gzipped: %v", path, resp.Header)
		}
	}
}

// TestGzipLoopbackRefreshesGetIdentity: the push scheduler's and the fleet's
// loopback refreshes replay requests into a recorder with no
// Accept-Encoding, so even for a gzip-capable entry they publish the
// identity bytes a polling client without gzip receives.
func TestGzipLoopbackRefreshesGetIdentity(t *testing.T) {
	e := newGzipEnv(t)
	for _, lw := range largeWidgets {
		// Warm the rendered entry over the socket first: the refreshes below
		// must then be hits on an entry that holds a gzip copy.
		getSocket(t, e, lw.path, "")
		identity := serveRec(e, lw.path).Body.Bytes()

		route := pushRoute{widget: lw.widget, path: lw.path, perUser: lw.perUser, ttl: e.server.cfg.TTLs.ClusterNodes}
		payload, degraded, err := e.server.pushFetch(route, "alice")(context.Background())
		if err != nil || degraded || !bytes.Equal(append(payload, '\n'), identity) {
			t.Fatalf("push refresh of %s: err %v, degraded %v, %d bytes; want the %d identity bytes",
				lw.path, err, degraded, len(payload), len(identity)-1)
		}

		src := fleetSource(route, "alice")
		if err := e.server.RegisterPushSource(src); err != nil {
			t.Fatal(err)
		}
		snap, err := e.server.RefreshPushSource(context.Background(), src.Key)
		if err != nil || !bytes.Equal(snap.Body, identity) {
			t.Fatalf("fleet refresh of %s: err %v, %d bytes; want the %d identity bytes",
				lw.path, err, len(snap.Body), len(identity))
		}
	}
}

// TestRenderedGzipHitAllocsNoMoreThanIdentity is the gzip hit path's
// allocation gate: serving the stored gzip copy allocates no more than
// serving the plain bytes, its 304 no more than its 200, and the two gzip
// metrics cost nothing — the same bar as SLO recording.
func TestRenderedGzipHitAllocsNoMoreThanIdentity(t *testing.T) {
	e := newGzipEnv(t)
	for _, lw := range largeWidgets {
		req := httptest.NewRequest(http.MethodGet, lw.path, nil)
		req.Header.Set(auth.UserHeader, "alice")
		gzReq := req.Clone(req.Context())
		gzReq.Header.Set("Accept-Encoding", "gzip, deflate, br")
		warm := serveRec(e, lw.path, "Accept-Encoding", "gzip")
		gzCond := gzReq.Clone(req.Context())
		gzCond.Header.Set("If-None-Match", warm.Header().Get("ETag"))

		served := e.server.obsm.gzipServed.Value(lw.widget)
		saved := e.server.obsm.gzipBytesSaved.Value()
		identity := testing.AllocsPerRun(200, func() { serveLoopback(t, e, req, http.StatusOK) })
		gzipped := testing.AllocsPerRun(200, func() { serveLoopback(t, e, gzReq, http.StatusOK) })
		notModified := testing.AllocsPerRun(200, func() { serveLoopback(t, e, gzCond, http.StatusNotModified) })
		if gzipped > identity {
			t.Errorf("GET %s: gzip hit allocates %.1f per request, more than the identity hit's %.1f",
				lw.path, gzipped, identity)
		}
		if notModified > gzipped {
			t.Errorf("GET %s: gzip 304 allocates %.1f per request, more than the gzip 200's %.1f",
				lw.path, notModified, gzipped)
		}

		// AllocsPerRun makes one warm-up call before its 200 measured runs.
		const runs = 201
		re := renderedEntry(t, e, lw.widget, lw.path, lw.perUser)
		if got := e.server.obsm.gzipServed.Value(lw.widget) - served; got != runs {
			t.Errorf("%s: gzip served counter moved %d, want %d", lw.widget, got, runs)
		}
		if got, want := e.server.obsm.gzipBytesSaved.Value()-saved, int64(runs*(len(re.body)-len(re.gz))); got != want {
			t.Errorf("%s: gzip bytes saved moved %d, want %d", lw.widget, got, want)
		}
		if n := testing.AllocsPerRun(200, func() {
			e.server.obsm.gzipServed.With(lw.widget).Inc()
			e.server.obsm.gzipBytesSaved.Add(int64(len(re.body) - len(re.gz)))
		}); n != 0 {
			t.Errorf("gzip metrics allocate %.1f per request, want 0", n)
		}
	}
}

// renderedEntry returns the rendered entry alice's requests for path hit.
func renderedEntry(t *testing.T, e *env, widget, path string, perUser bool) *renderedResponse {
	t.Helper()
	variant := ""
	if perUser {
		variant = "alice"
	}
	v, ok := e.server.rendered.Get(renderKey(widget, variant, path))
	re, _ := v.(*renderedResponse)
	if !ok || re == nil || re.gz == nil {
		t.Fatalf("no gzip-capable rendered entry for %s %s", widget, path)
	}
	return re
}

// TestGzipMetricsExposition: the gzip counters appear on /metrics, per
// widget for the served count, and the document stays valid exposition.
func TestGzipMetricsExposition(t *testing.T) {
	e := newGzipEnv(t)
	for _, lw := range largeWidgets {
		getSocket(t, e, lw.path, "")
		getSocket(t, e, lw.path, "")
	}
	status, body := e.get("staff", "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d", status)
	}
	text := string(body)
	validateMetricsExposition(t, text)
	for _, want := range []string{
		`ooddash_render_gzip_served_total{widget="cluster_status"} 2`,
		`ooddash_render_gzip_served_total{widget="my_jobs"} 2`,
		"# TYPE ooddash_render_gzip_bytes_saved_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(text, "ooddash_render_gzip_bytes_saved_total 0\n") {
		t.Error("gzip bytes saved stayed 0 after gzip responses")
	}
}
