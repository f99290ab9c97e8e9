package core

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/slurm"
)

// TestRenderedHitNoReencode is the encode-once regression gate: once a
// widget's payload has been materialized, serving it again must not call
// json.Marshal (or touch the view-model build) at all.
func TestRenderedHitNoReencode(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024}})

	paths := []string{"/api/announcements", "/api/system_status", "/api/cluster_status",
		"/api/recent_jobs", "/api/storage", "/api/myjobs"}
	for _, path := range paths {
		e.wantStatus("alice", path, http.StatusOK)
	}
	encodesAfterWarm := e.server.RenderEncodes()
	hitsBefore, _ := e.server.RenderStats()

	for _, path := range paths {
		status, body := e.get("alice", path)
		if status != http.StatusOK || len(body) == 0 {
			t.Fatalf("GET %s: status %d, %d bytes", path, status, len(body))
		}
	}
	if got := e.server.RenderEncodes(); got != encodesAfterWarm {
		t.Fatalf("warm requests re-encoded: %d encodes after warm, %d after re-serve",
			encodesAfterWarm, got)
	}
	hitsAfter, _ := e.server.RenderStats()
	if hitsAfter-hitsBefore != int64(len(paths)) {
		t.Fatalf("render hits = %d, want %d", hitsAfter-hitsBefore, len(paths))
	}
}

// TestRenderedBytesStableAcrossHits asserts a hit serves byte-identical
// output to the miss that filled it (the materialized bytes ARE the
// response, not a re-rendering of it).
func TestRenderedBytesStableAcrossHits(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024}})

	_, h1, b1 := e.getFull("alice", "/api/myjobs")
	_, h2, b2 := e.getFull("alice", "/api/myjobs")
	if !bytes.Equal(b1, b2) {
		t.Fatalf("hit bytes differ from miss bytes:\n%s\n---\n%s", b1, b2)
	}
	if h1.Get("ETag") == "" || h1.Get("ETag") != h2.Get("ETag") {
		t.Fatalf("ETags differ: %q vs %q", h1.Get("ETag"), h2.Get("ETag"))
	}
}

// TestRenderedVariantIsolation asserts per-user routes key their rendered
// bytes by user: one user's materialized payload must never serve another.
func TestRenderedVariantIsolation(t *testing.T) {
	e := newEnv(t)
	// alice is only in lab-a, carol only in lab-b: neither's My Jobs group
	// scope covers the other, so any crossover is a rendered-cache leak.
	e.submit(slurm.SubmitRequest{Name: "alice-job", User: "alice", Account: "lab-a",
		Partition: "cpu", ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024}})
	e.submit(slurm.SubmitRequest{Name: "carol-job", User: "carol", Account: "lab-b",
		Partition: "cpu", ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024}})

	for _, path := range []string{"/api/myjobs", "/api/storage", "/api/recent_jobs"} {
		// Warm alice's rendered entry, then serve it again (a hit), then
		// request the same path as carol: carol must get carol's payload.
		_, aliceBody := e.get("alice", path)
		_, aliceBody2 := e.get("alice", path)
		if !bytes.Equal(aliceBody, aliceBody2) {
			t.Fatalf("GET %s: alice's two responses differ", path)
		}
		_, carolBody := e.get("carol", path)
		if bytes.Equal(aliceBody, carolBody) {
			t.Fatalf("GET %s: carol received alice's bytes:\n%s", path, carolBody)
		}
		if bytes.Contains(carolBody, []byte(`"alice`)) {
			t.Fatalf("GET %s: carol's payload leaks alice's data:\n%s", path, carolBody)
		}
	}
}

// TestRenderedRevGuardInvalidation asserts a source-cache refill (new data
// after TTL expiry) invalidates the materialized bytes via the revision
// guard rather than serving stale output.
func TestRenderedRevGuardInvalidation(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{Name: "first", User: "alice", Account: "lab-a",
		Partition: "cpu", ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024}})

	_, before := e.get("alice", "/api/myjobs")
	if !bytes.Contains(before, []byte(`"first"`)) {
		t.Fatalf("payload missing first job: %s", before)
	}

	// New job + TTL expiry: the source cache refills with a new revision.
	e.advance(2 * time.Hour)
	e.submit(slurm.SubmitRequest{Name: "second", User: "alice", Account: "lab-a",
		Partition: "cpu", ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024}})

	_, after := e.get("alice", "/api/myjobs")
	if !bytes.Contains(after, []byte(`"second"`)) {
		t.Fatalf("rendered cache served stale bytes after source refill: %s", after)
	}
}

// TestRenderCacheDisabledFallback asserts the benchmark baseline setting
// really forces a fresh encode per request.
func TestRenderCacheDisabledFallback(t *testing.T) {
	e := newEnvWith(t, func(c *Config) { c.RenderCacheDisabled = true }, nil)

	e.wantStatus("alice", "/api/system_status", http.StatusOK)
	n := e.server.RenderEncodes()
	e.wantStatus("alice", "/api/system_status", http.StatusOK)
	if got := e.server.RenderEncodes(); got != n+1 {
		t.Fatalf("disabled layer: encodes went %d -> %d, want +1", n, got)
	}
}

// TestRenderedETagRevalidation asserts the materialized hit path still
// honors If-None-Match with a 304 and sends no body.
func TestRenderedETagRevalidation(t *testing.T) {
	e := newEnv(t)
	_, h, _ := e.getFull("alice", "/api/system_status")
	tag := h.Get("ETag")
	if tag == "" {
		t.Fatal("no ETag on rendered response")
	}

	req, err := http.NewRequest("GET", e.web.URL+"/api/system_status", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(auth.UserHeader, "alice")
	req.Header.Set("If-None-Match", tag)
	resp, err := e.web.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", resp.StatusCode)
	}
}

// TestAnnotateDegradedBytes pins the degraded annotation's exact bytes: the
// splice must preserve the original field order and append the two marker
// fields at the end, matching what the old Marshal-round-trip produced for
// ordered keys — but without re-encoding.
func TestAnnotateDegradedBytes(t *testing.T) {
	cases := []struct {
		in   string
		age  int64
		want string
		ok   bool
	}{
		{`{"b":2,"a":1}`, 42, `{"b":2,"a":1,"degraded":true,"age_seconds":42}`, true},
		{`{}`, 0, `{"degraded":true,"age_seconds":0}`, true},
		{`{"nested":{"x":[1,2]}}`, 7, `{"nested":{"x":[1,2]},"degraded":true,"age_seconds":7}`, true},
		{`[1,2,3]`, 5, `[1,2,3]`, false},
		{`"str"`, 5, `"str"`, false},
		{``, 5, ``, false},
	}
	for _, c := range cases {
		got, ok := annotateDegraded([]byte(c.in), c.age)
		if string(got) != c.want || ok != c.ok {
			t.Errorf("annotateDegraded(%q, %d) = %q, %v; want %q, %v",
				c.in, c.age, got, ok, c.want, c.ok)
		}
	}
}

// TestRevalidate304AllocsNoMoreThan200 keeps a revalidation no more
// expensive than the response it saves: answering If-None-Match with 304
// must not allocate more than writing the stored 200 body.
func TestRevalidate304AllocsNoMoreThan200(t *testing.T) {
	e, req, tag := warmWidget(t, "/api/myjobs", -1, false)
	cond := req.Clone(req.Context())
	cond.Header.Set("If-None-Match", tag)
	full := testing.AllocsPerRun(200, func() { serveLoopback(t, e, req, http.StatusOK) })
	notModified := testing.AllocsPerRun(200, func() { serveLoopback(t, e, cond, http.StatusNotModified) })
	if notModified > full {
		t.Fatalf("304 allocates %.1f per request, more than the 200's %.1f", notModified, full)
	}
}
