package core

import (
	"bytes"
	"strings"
	"testing"

	"ooddash/internal/trace"
)

// TestRollupGoldenEquivalence is the ablation contract: every rollup-backed
// route serves byte-identical JSON whether the window comes from the
// incremental store or is recomputed by scanning raw accounting rows (a
// second server over the same cluster, built with Config.RollupDisabled).
// Any drift here means the ingest fold and the raw fold disagree on some
// job.
func TestRollupGoldenEquivalence(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	rawServer := e.newServer(func(c *Config) { c.RollupDisabled = true })
	paths := []struct{ user, path string }{
		{"alice", "/api/jobperf/timeseries?range=24h&bucket=hour"},
		{"alice", "/api/jobperf/timeseries?range=24h"},
		{"alice", "/api/jobperf/timeseries?range=7d"},
		{"alice", "/api/jobperf/timeseries?range=all"},
		{"bob", "/api/jobperf/timeseries?range=custom&from=2026-07-01T08:30:00Z&to=2026-07-01T10:30:00Z&bucket=hour"},
		{"alice", "/api/jobperf?range=24h"},
		{"bob", "/api/jobperf?range=all"},
		{"carol", "/api/jobperf?range=all"}, // no history: both paths agree on the empty shape
		{"alice", "/api/usage/cluster?range=7d"},
		{"alice", "/api/usage/cluster?range=1y"},
		{"alice", "/api/usage/accounts?range=90d"},
		{"alice", "/api/usage/efficiency?range=30d"},
	}
	for _, p := range paths {
		status, rolled := e.get(p.user, p.path)
		if status != 200 {
			t.Errorf("%s: rollup status %d: %s", p.path, status, rolled)
			continue
		}
		status, raw := serve(rawServer, p.user, p.path)
		if status != 200 {
			t.Errorf("%s: raw status %d: %s", p.path, status, raw)
			continue
		}
		if !bytes.Equal(rolled, raw) {
			t.Errorf("%s: rollup and raw recompute differ\nrollup: %s\nraw:    %s",
				p.path, rolled, raw)
		}
	}
}

// TestRollupPartialBucketFlags pins the half-open alignment contract: a
// window edge inside a bucket widens the response to the whole bucket and
// sets the partial flag — the edge buckets are never silently scaled down
// to the requested sliver.
func TestRollupPartialBucketFlags(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)

	// bob's history: crashy FAILED ends 08:10, train COMPLETED ends 10:00.
	var resp TimeseriesResponse
	e.getJSON("bob", "/api/jobperf/timeseries?range=custom&from=2026-07-01T08:30:00Z&to=2026-07-01T10:30:00Z&bucket=hour", &resp)
	if !resp.PartialStart || !resp.PartialEnd {
		t.Fatalf("unaligned window not flagged: %+v", resp)
	}
	if len(resp.Buckets) != 2 {
		t.Fatalf("buckets = %+v", resp.Buckets)
	}
	// The first bucket is the whole 08:00 hour: it includes the 08:10
	// failure even though the request started at 08:30 — flagged, not
	// trimmed.
	if resp.Buckets[0].Start.Hour() != 8 || resp.Buckets[0].Failed != 1 {
		t.Fatalf("partial first bucket = %+v", resp.Buckets[0])
	}

	// Aligned edges: no flags (fresh struct — the flags are omitempty).
	var aligned TimeseriesResponse
	e.getJSON("bob", "/api/jobperf/timeseries?range=custom&from=2026-07-01T08:00:00Z&to=2026-07-01T11:00:00Z&bucket=hour", &aligned)
	if aligned.PartialStart || aligned.PartialEnd {
		t.Fatalf("aligned window flagged partial: %+v", aligned)
	}
	if len(aligned.Buckets) != 2 {
		t.Fatalf("aligned buckets = %+v", aligned.Buckets)
	}
}

// TestRollupRangeValidation pins the 400s: degenerate windows, explicit
// buckets too fine for the window, windows outside a resolution's
// retention, and unknown bucket names are client errors — never silently
// served with missing data.
func TestRollupRangeValidation(t *testing.T) {
	e := newEnv(t)
	// Degenerate custom windows: empty and inverted.
	e.wantStatus("alice", "/api/jobperf/timeseries?range=custom&from=2026-07-01T08:00:00Z&to=2026-07-01T08:00:00Z", 400)
	e.wantStatus("alice", "/api/jobperf/timeseries?range=custom&from=2026-07-01T09:00:00Z&to=2026-07-01T08:00:00Z", 400)
	// Sub-resolution requests: too many buckets at the explicit resolution.
	e.wantStatus("alice", "/api/jobperf/timeseries?range=90d&bucket=hour", 400)
	e.wantStatus("alice", "/api/jobperf/timeseries?range=7d&bucket=minute", 400)
	// Minute buckets exist for 48h; a 3-day-old window cannot be served
	// at minute resolution even though it is small.
	e.wantStatus("alice", "/api/jobperf/timeseries?range=custom&from=2026-06-28T08:00:00Z&to=2026-06-28T09:00:00Z&bucket=minute", 400)
	// Unknown bucket name, on the usage widgets too.
	e.wantStatus("alice", "/api/usage/cluster?bucket=fortnight", 400)
	// Bad top parameter on the accounts ranking.
	e.wantStatus("alice", "/api/usage/accounts?top=0", 400)
	e.wantStatus("alice", "/api/usage/accounts?top=abc", 400)
}

// TestRollupResolutionSelection pins auto selection: the finest resolution
// that fits the point budget and retention serves the window.
func TestRollupResolutionSelection(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)

	var ts TimeseriesResponse
	e.getJSON("alice", "/api/jobperf/timeseries?range=custom&from=2026-07-01T08:00:00Z&to=2026-07-01T11:00:00Z", &ts)
	if ts.Resolution != "minute" || ts.BucketSecs != 60 {
		t.Fatalf("3h window: resolution %q bucket %d, want minute", ts.Resolution, ts.BucketSecs)
	}
	e.getJSON("alice", "/api/jobperf/timeseries?range=24h", &ts)
	if ts.Resolution != "hour" {
		t.Fatalf("24h range: resolution %q, want hour", ts.Resolution)
	}

	var cu ClusterUsageResponse
	e.getJSON("alice", "/api/usage/cluster?range=7d", &cu)
	if cu.Resolution != "hour" {
		t.Fatalf("7d range: resolution %q, want hour", cu.Resolution)
	}
	e.getJSON("alice", "/api/usage/cluster?range=90d", &cu)
	if cu.Resolution != "day" {
		t.Fatalf("90d range: resolution %q, want day", cu.Resolution)
	}
	e.getJSON("alice", "/api/usage/cluster?range=1y", &cu)
	if cu.Resolution != "day" {
		t.Fatalf("1y range: resolution %q, want day", cu.Resolution)
	}
}

// TestRollupMetricsExposed asserts the store-health and query-path families
// land on /metrics.
func TestRollupMetricsExposed(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	e.wantStatus("alice", "/api/usage/cluster?range=7d", 200)
	e.wantStatus("alice", "/api/jobperf/timeseries?range=24h&bucket=hour", 200)
	status, body := e.get("staff", "/metrics")
	if status != 200 {
		t.Fatalf("/metrics status = %d", status)
	}
	text := string(body)
	for _, want := range []string{
		`ooddash_rollup_buckets{resolution="minute"}`,
		`ooddash_rollup_buckets{resolution="hour"}`,
		`ooddash_rollup_buckets{resolution="day"}`,
		`ooddash_rollup_compactions_total{level="hour"}`,
		`ooddash_rollup_compactions_total{level="day"}`,
		"ooddash_rollup_ingested_total",
		"ooddash_rollup_late_direct_total",
		"ooddash_rollup_evicted_buckets_total",
		`ooddash_rollup_queries_total{resolution="hour",selection="auto"}`,
		`ooddash_rollup_queries_total{resolution="hour",selection="explicit"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRollupQueryTraceSpan asserts the rollup read shows up in the trace
// waterfall with its scope and resolution, attributed under the request.
func TestRollupQueryTraceSpan(t *testing.T) {
	e := tracedEnv(t)
	seedMixedHistory(e)
	e.wantStatus("alice", "/api/jobperf?range=24h", 200)

	var list TraceListResponse
	e.getJSON("staff", "/api/admin/traces", &list)
	var id string
	for _, sum := range list.Traces {
		if sum.Widget == "job_perf" {
			id = sum.ID
		}
	}
	if id == "" {
		t.Fatalf("no job_perf trace retained: %+v", list.Traces)
	}
	var tj trace.TraceJSON
	e.getJSON("staff", "/api/admin/traces/"+id, &tj)
	sp := findSpan(tj.Root, "rollup.query")
	if sp == nil {
		t.Fatalf("no rollup.query span in trace: %+v", tj)
	}
	if sp.Attrs["scope"] != "user" || sp.Attrs["resolution"] != "hour" {
		t.Errorf("rollup.query attrs = %v, want scope=user resolution=hour", sp.Attrs)
	}
}
