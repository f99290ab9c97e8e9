package core

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/slurm"
)

func TestWidgetTableMatchesTable1(t *testing.T) {
	e := newEnv(t)
	widgets := e.server.Widgets()
	wantSources := map[string]string{
		"announcements":  "API call to center news page",
		"recent_jobs":    "squeue (Slurm)",
		"system_status":  "sinfo (Slurm)",
		"accounts":       "scontrol show assoc (Slurm)",
		"storage":        "ZFS and GPFS storage database",
		"my_jobs":        "sacct (Slurm)",
		"job_perf":       "sreport rollup (slurmdbd)",
		"cluster_status": "scontrol show node (Slurm)",
		"job_overview":   "scontrol show job (Slurm)",
		"node_overview":  "scontrol show node (Slurm)",
	}
	byName := make(map[string]Widget)
	for _, w := range widgets {
		byName[w.Name] = w
	}
	for name, source := range wantSources {
		w, ok := byName[name]
		if !ok {
			t.Errorf("missing widget %q", name)
			continue
		}
		if w.DataSource != source {
			t.Errorf("widget %s data source = %q, want %q", name, w.DataSource, source)
		}
	}
}

func TestMountSubsetInIsolation(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})

	// Another site adopts just two widgets on its own mux (§2.3, §8).
	mux := http.NewServeMux()
	if err := e.server.Mount(mux, "recent_jobs", "system_status"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) int {
		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		req.Header.Set(auth.UserHeader, "alice")
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/api/recent_jobs"); got != 200 {
		t.Fatalf("mounted widget = %d", got)
	}
	if got := get("/api/system_status"); got != 200 {
		t.Fatalf("mounted widget = %d", got)
	}
	// Widgets that weren't adopted are absent.
	if got := get("/api/storage"); got != 404 {
		t.Fatalf("unmounted widget = %d, want 404", got)
	}
}

func TestMountUnknownWidget(t *testing.T) {
	e := newEnv(t)
	if err := e.server.Mount(http.NewServeMux(), "nonexistent"); err == nil {
		t.Fatal("expected error for unknown widget name")
	}
	// All unknown names are reported, deterministically sorted, with known
	// names accepted alongside.
	err := e.server.Mount(http.NewServeMux(), "zeta", "recent_jobs", "alpha")
	if err == nil {
		t.Fatal("expected error for unknown widget names")
	}
	if !strings.Contains(err.Error(), "alpha, zeta") {
		t.Fatalf("Mount error = %q, want all unknown names sorted", err)
	}
}

func TestWidgetFailureIsolation(t *testing.T) {
	e := newEnv(t)
	// Kill the news backend: announcements must fail alone (503: upstream
	// unavailable, no stale copy) while every other widget keeps serving
	// (§2.4 Modularity).
	e.feedSrv.Close()
	e.wantStatus("alice", "/api/announcements", 503)
	e.wantStatus("alice", "/api/recent_jobs", 200)
	e.wantStatus("alice", "/api/system_status", 200)
	e.wantStatus("alice", "/api/storage", 200)
}

func TestServerCacheReducesControllerLoad(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	stats := e.cluster.Ctl.Stats()
	before := stats.Count(slurm.RPCSqueue)
	for i := 0; i < 20; i++ {
		e.wantStatus("alice", "/api/recent_jobs", 200)
	}
	if got := stats.Count(slurm.RPCSqueue) - before; got != 1 {
		t.Fatalf("squeue RPCs for 20 cached requests = %d, want 1", got)
	}

	// After the TTL passes, exactly one more query goes through.
	e.clock.Advance(31 * time.Second)
	e.cluster.Ctl.Tick()
	for i := 0; i < 5; i++ {
		e.wantStatus("alice", "/api/recent_jobs", 200)
	}
	if got := stats.Count(slurm.RPCSqueue) - before; got != 2 {
		t.Fatalf("squeue RPCs after expiry = %d, want 2", got)
	}
}

func TestCacheDisabledHitsSlurmEveryTime(t *testing.T) {
	e := newEnv(t)
	e.server.Cache().Disabled = true
	stats := e.cluster.Ctl.Stats()
	before := stats.Count(slurm.RPCSqueue)
	for i := 0; i < 5; i++ {
		e.wantStatus("alice", "/api/recent_jobs", 200)
	}
	if got := stats.Count(slurm.RPCSqueue) - before; got != 5 {
		t.Fatalf("uncached squeue RPCs = %d, want 5", got)
	}
}

func TestStalenessBoundedByTTL(t *testing.T) {
	e := newEnv(t)
	var resp RecentJobsResponse
	e.getJSON("alice", "/api/recent_jobs", &resp)
	if len(resp.Jobs) != 0 {
		t.Fatalf("initial jobs = %+v", resp.Jobs)
	}
	// Submit a job; the cached (empty) response may persist up to the TTL…
	e.submit(slurm.SubmitRequest{
		Name: "fresh", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	e.getJSON("alice", "/api/recent_jobs", &resp)
	if len(resp.Jobs) != 0 {
		t.Fatalf("expected stale cache inside TTL, got %+v", resp.Jobs)
	}
	// …but no longer than the TTL.
	e.clock.Advance(31 * time.Second)
	e.cluster.Ctl.Tick()
	e.getJSON("alice", "/api/recent_jobs", &resp)
	if len(resp.Jobs) != 1 || resp.Jobs[0].Name != "fresh" {
		t.Fatalf("post-TTL jobs = %+v", resp.Jobs)
	}
}

func TestNewServerValidation(t *testing.T) {
	users := auth.NewDirectory()
	if _, err := NewServer(Config{}, Deps{Users: users}); err == nil {
		t.Fatal("expected error without runner")
	}
	e := newEnv(t)
	if _, err := NewServer(Config{}, Deps{Runner: e.server.runner}); err == nil {
		t.Fatal("expected error without user directory")
	}
	if _, err := NewServer(Config{}, Deps{Runner: e.server.runner, Users: users}); err == nil {
		t.Fatal("expected error without clock")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.TTLs.Announcements != 30*time.Minute {
		t.Fatalf("announcements TTL = %v", cfg.TTLs.Announcements)
	}
	if cfg.TTLs.RecentJobs != 30*time.Second {
		t.Fatalf("recent jobs TTL = %v", cfg.TTLs.RecentJobs)
	}
	if cfg.TTLs.Storage != time.Hour {
		t.Fatalf("storage TTL = %v", cfg.TTLs.Storage)
	}
	// Explicit values survive.
	cfg2 := Config{TTLs: CacheTTLs{Storage: time.Minute}, ClusterName: "x"}.withDefaults()
	if cfg2.TTLs.Storage != time.Minute || cfg2.ClusterName != "x" {
		t.Fatalf("cfg2 = %+v", cfg2)
	}
}
