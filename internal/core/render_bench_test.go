package core

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ooddash/internal/auth"
	"ooddash/internal/slurm"
)

// benchServe drives the widget path in-process (no network) and reports
// allocations — the regression numbers the encode-once work is about.
// Tracing is disabled so these benchmarks keep measuring the PR-4 hit path;
// trace_bench_test.go measures the tracing overhead against them.
func benchServe(b *testing.B, path string, renderOff bool, ifNoneMatch bool) {
	benchServeSampled(b, path, renderOff, ifNoneMatch, -1)
}

// benchServeSampled is benchServe with an explicit head-sampling setting
// (-1 tracing off, 0 sampled-out, 1 every request traced).
func benchServeSampled(b *testing.B, path string, renderOff bool, ifNoneMatch bool, sample float64) {
	e, req, tag := warmWidget(b, path, sample, renderOff)
	want := http.StatusOK
	if ifNoneMatch {
		req.Header.Set("If-None-Match", tag)
		want = http.StatusNotModified
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveLoopback(b, e, req, want)
	}
}

// warmWidget builds an env with some queue history (and the rendered layer
// off when renderOff), sets the trace sample, and serves path once as alice
// to warm both cache layers. It returns the request to replay and the ETag
// the warm response carried.
func warmWidget(tb testing.TB, path string, sample float64, renderOff bool) (*env, *http.Request, string) {
	e := newEnvWith(tb, func(c *Config) { c.RenderCacheDisabled = renderOff }, nil)
	for i := 0; i < 20; i++ {
		e.submit(slurm.SubmitRequest{Name: fmt.Sprintf("j%d", i), User: "alice",
			Account: "lab-a", Partition: "cpu", ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512}})
	}
	e.server.SetTraceSample(sample)

	req := httptest.NewRequest("GET", path, nil)
	req.Header.Set(auth.UserHeader, "alice")
	warm := httptest.NewRecorder()
	e.server.ServeHTTP(warm, req)
	if warm.Code != http.StatusOK {
		tb.Fatalf("warm GET %s: status %d: %s", path, warm.Code, warm.Body.String())
	}
	tag := warm.Header().Get("ETag")
	if tag == "" {
		tb.Fatalf("GET %s: no ETag to revalidate against", path)
	}
	return e, req, tag
}

// serveLoopback serves req in process and requires the given status.
func serveLoopback(tb testing.TB, e *env, req *http.Request, want int) {
	rec := newLoopbackRecorder()
	e.server.ServeHTTP(rec, req)
	if rec.status != want {
		tb.Fatalf("GET %s: status %d, want %d", req.URL, rec.status, want)
	}
	rec.release()
}

func BenchmarkWidgetServeEncodeOnce(b *testing.B) {
	benchServe(b, "/api/myjobs", false, false)
}

// BenchmarkWidgetServeReencode is the pre-tentpole baseline: same cache hit,
// but the payload is rebuilt and re-marshaled per request.
func BenchmarkWidgetServeReencode(b *testing.B) {
	benchServe(b, "/api/myjobs", true, false)
}

// BenchmarkWidgetRevalidate304 is the cheapest possible serve: If-None-Match
// matches the stored ETag, so the response is headers only.
func BenchmarkWidgetRevalidate304(b *testing.B) {
	benchServe(b, "/api/myjobs", false, true)
}

func BenchmarkClusterStatusEncodeOnce(b *testing.B) {
	benchServe(b, "/api/cluster_status", false, false)
}

func BenchmarkClusterStatusReencode(b *testing.B) {
	benchServe(b, "/api/cluster_status", true, false)
}
