package core

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/etag"
	"ooddash/internal/slurm"
)

// TestETagMatch locks in the RFC 9110 §13.1.2 weak-comparison semantics
// of If-None-Match evaluation (shared with internal/slurmrest via
// internal/etag): W/ prefixes are ignored, candidate lists may carry odd
// whitespace, "*" matches anything, and comparison is whole-tag — a
// candidate that is a mere prefix of the tag must not match.
func TestETagMatch(t *testing.T) {
	tag := `"00000000deadbeef"`
	cases := []struct {
		name   string
		header string
		want   bool
	}{
		{"empty header", "", false},
		{"exact strong match", tag, true},
		{"wildcard", "*", true},
		{"wildcard with whitespace", "  *  ", true},
		{"weak candidate matches strong tag", `W/` + tag, true},
		{"weak candidate with surrounding space", ` W/` + tag + ` `, true},
		{"second candidate matches", `"other", ` + tag, true},
		{"first candidate matches", tag + `, "other"`, true},
		{"middle candidate, odd whitespace", `"a" ,   W/` + tag + `  ,"b"`, true},
		{"tab-separated candidates", "\"a\",\t" + tag, true},
		{"no candidate matches", `"other"`, false},
		{"multiple non-matching candidates", `"a", W/"b", "c"`, false},
		{"candidate is a prefix of the tag", `"00000000deadbee`, false},
		{"candidate is the tag minus quotes", `00000000deadbeef`, false},
		{"tag is a prefix of the candidate", tag[:len(tag)-1] + `ff"`, false},
		{"empty list elements around a match", `, ` + tag + ` ,`, true},
		{"weak marker alone", `W/`, false},
		{"weak marker inside quotes is literal", `"W/00000000deadbeef"`, false},
	}
	for _, c := range cases {
		if got := etag.Match(c.header, tag); got != c.want {
			t.Errorf("%s: etag.Match(%q) = %v, want %v", c.name, c.header, got, c.want)
		}
	}
}

func TestConditionalWidgetRequests(t *testing.T) {
	e := newEnv(t)
	defer e.server.Close()

	status, header, body := e.getFull("alice", "/api/system_status")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	tag := header.Get("ETag")
	if !strings.HasPrefix(tag, `"`) || !strings.HasSuffix(tag, `"`) {
		t.Fatalf("ETag = %q, want quoted tag", tag)
	}

	// Revalidating with the tag: 304, empty body, counted on /metrics.
	req, _ := http.NewRequest("GET", e.web.URL+"/api/system_status", nil)
	req.Header.Set(auth.UserHeader, "alice")
	req.Header.Set("If-None-Match", tag)
	resp, err := e.web.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", resp.StatusCode)
	}
	if resp.ContentLength > 0 {
		t.Fatalf("304 carried a body of %d bytes", resp.ContentLength)
	}
	_, metrics := e.get("staff", "/metrics")
	if !strings.Contains(string(metrics), `ooddash_not_modified_total{widget="system_status"} 1`) {
		t.Fatal("ooddash_not_modified_total not counted")
	}

	// A mismatched tag serves the full body with the same ETag (payload is
	// cached and unchanged).
	req.Header.Set("If-None-Match", `"0011223344556677"`)
	resp, err = e.web.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != tag {
		t.Fatalf("mismatch revalidation: status %d etag %q, want 200 %q",
			resp.StatusCode, resp.Header.Get("ETag"), tag)
	}
	if len(body) == 0 {
		t.Fatal("expected a body on mismatch")
	}

	// Degraded responses must not be conditional: warm a widget, kill the
	// controller, expire the cache, and confirm the stale fallback carries
	// no ETag.
	status, _, _ = e.getFull("alice", "/api/recent_jobs")
	if status != http.StatusOK {
		t.Fatalf("warmup status %d", status)
	}
	e.cluster.Ctl.SetHealth(slurm.HealthDown, "etag drill")
	e.clock.Advance(31 * time.Second)
	status, header, _ = e.getFull("alice", "/api/recent_jobs")
	if status != http.StatusOK || header.Get(degradedHeader) == "" {
		t.Fatalf("degraded fetch: status %d degraded %q", status, header.Get(degradedHeader))
	}
	if got := header.Get("ETag"); got != "" {
		t.Fatalf("degraded response carried ETag %q", got)
	}
}

// etagForSprintf is the previous etag.For implementation, kept as the
// micro-benchmark baseline: a hash.Hash64 allocation plus two Sprintf
// round-trips per tag.
func etagForSprintf(body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return fmt.Sprintf("%q", fmt.Sprintf("%016x", h.Sum64()))
}

// TestETagForMatchesLegacy pins the rewritten etag.For to the old
// implementation's exact output, so tags stored by clients before the
// rewrite keep revalidating.
func TestETagForMatchesLegacy(t *testing.T) {
	bodies := [][]byte{
		nil,
		{},
		[]byte("{}"),
		[]byte(`{"jobs":[1,2,3]}` + "\n"),
		[]byte(strings.Repeat("x", 4096)),
	}
	for _, body := range bodies {
		if got, want := etag.For(body), etagForSprintf(body); got != want {
			t.Errorf("etag.For(%d bytes) = %q, legacy = %q", len(body), got, want)
		}
	}
}

func BenchmarkETagFor(b *testing.B) {
	body := []byte(strings.Repeat(`{"jobs":[{"id":1}]}`, 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if etag.For(body) == "" {
			b.Fatal("empty tag")
		}
	}
}

func BenchmarkETagForSprintf(b *testing.B) {
	body := []byte(strings.Repeat(`{"jobs":[{"id":1}]}`, 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if etagForSprintf(body) == "" {
			b.Fatal("empty tag")
		}
	}
}
