package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/clock"
	"ooddash/internal/newsfeed"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/storagedb"
)

// env is a full dashboard stack over a small simulated cluster.
type env struct {
	t       testing.TB
	clock   *clock.Sim
	cluster *slurm.Cluster
	feed    *newsfeed.Feed
	feedSrv *httptest.Server
	storage *storagedb.Database
	users   *auth.Directory
	logs    *MemLogStore
	server  *Server
	web     *httptest.Server
}

// newEnv wires the whole stack: simulated cluster, news feed, storage
// database, user directory, log store, dashboard server.
func newEnv(t testing.TB) *env {
	t.Helper()
	return newEnvWith(t, nil, nil)
}

// newEnvWith is newEnv with hooks: mutate adjusts the server config before
// construction (e.g. a deterministic TraceConfig), and wrapRunner wraps the
// simulator's command runner (e.g. in a FaultRunner for failure drills).
func newEnvWith(t testing.TB, mutate func(*Config), wrapRunner func(slurmcli.Runner) slurmcli.Runner) *env {
	t.Helper()
	return newEnvDeps(t, mutate, wrapRunner, nil)
}

// newEnvDeps is newEnvWith plus a dependency hook: mutateDeps runs just
// before NewServer with the assembled Deps and the simulated cluster, so a
// test can attach extra backends (the REST client/server pair).
func newEnvDeps(t testing.TB, mutate func(*Config), wrapRunner func(slurmcli.Runner) slurmcli.Runner, mutateDeps func(*Deps, *slurm.Cluster)) *env {
	t.Helper()
	return newEnvCluster(t, testClusterConfig(), mutate, wrapRunner, mutateDeps)
}

// testClusterConfig is the small simulated cluster every env runs: six
// nodes in two partitions, two accounts, three users.
func testClusterConfig() slurm.ClusterConfig {
	return slurm.ClusterConfig{
		Name: "testcluster",
		Nodes: []slurm.NodeSpec{
			{NamePrefix: "c", Count: 4, CPUs: 8, MemMB: 16 * 1024, Partitions: []string{"cpu"}},
			{NamePrefix: "g", Count: 2, CPUs: 16, MemMB: 64 * 1024, GPUs: 2, GPUType: "a100", Partitions: []string{"gpu"}},
		},
		Partitions: []slurm.PartitionSpec{
			{Name: "cpu", MaxTime: 24 * time.Hour, Default: true, Priority: 100},
			{Name: "gpu", MaxTime: 12 * time.Hour, Priority: 100},
		},
		QOS: []slurm.QOS{{Name: "normal"}, {Name: "debug", Priority: 1000, MaxJobsPerUser: 1}},
		Associations: []slurm.Association{
			{Account: "lab-a", GrpCPULimit: 24},
			{Account: "lab-a", User: "alice"},
			{Account: "lab-a", User: "bob"},
			{Account: "lab-b"},
			{Account: "lab-b", User: "bob"},
			{Account: "lab-b", User: "carol"},
		},
	}
}

// newEnvCluster is newEnvDeps over the given cluster configuration.
func newEnvCluster(t testing.TB, cfg slurm.ClusterConfig, mutate func(*Config), wrapRunner func(slurmcli.Runner) slurmcli.Runner, mutateDeps func(*Deps, *slurm.Cluster)) *env {
	t.Helper()
	clk := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	cluster, err := slurm.NewCluster(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}

	feed := newsfeed.New(clk)
	feedSrv := httptest.NewServer(feed)
	t.Cleanup(feedSrv.Close)

	storage := storagedb.New()
	for _, u := range []string{"alice", "bob", "carol"} {
		storage.ProvisionUser(u)
	}
	storage.ProvisionGroup("lab-a", 5<<40)
	storage.ProvisionGroup("lab-b", 1<<40)

	users := auth.NewDirectory()
	users.AddUser(auth.User{Name: "alice", Accounts: []string{"lab-a"}})
	users.AddUser(auth.User{Name: "bob", Accounts: []string{"lab-a", "lab-b"}})
	users.AddUser(auth.User{Name: "carol", Accounts: []string{"lab-b"}})
	users.AddUser(auth.User{Name: "staff", Admin: true})

	logs := NewMemLogStore()

	scfg := Config{ClusterName: "testcluster"}
	if mutate != nil {
		mutate(&scfg)
	}
	var runner slurmcli.Runner = slurmcli.NewSimRunner(cluster)
	if wrapRunner != nil {
		runner = wrapRunner(runner)
	}
	deps := Deps{
		Runner:      runner,
		News:        &newsfeed.Client{BaseURL: feedSrv.URL, HTTPClient: feedSrv.Client()},
		Storage:     storage,
		Users:       users,
		Logs:        logs,
		Clock:       clk,
		Events:      cluster.Ctl,
		RollupStats: cluster.DBD.RollupStats,
	}
	if mutateDeps != nil {
		mutateDeps(&deps, cluster)
	}
	server, err := NewServer(scfg, deps)
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(server)
	t.Cleanup(web.Close)

	return &env{
		t: t, clock: clk, cluster: cluster,
		feed: feed, feedSrv: feedSrv,
		storage: storage, users: users, logs: logs,
		server: server, web: web,
	}
}

// newServer builds a second dashboard over e's cluster, users, storage, logs
// and news feed with an empty cache; mutate adjusts its config (nil keeps
// the defaults). It is the other side of a config A/B over one cluster.
func (e *env) newServer(mutate func(*Config)) *Server {
	e.t.Helper()
	cfg := Config{ClusterName: "testcluster"}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg, Deps{
		Runner:  slurmcli.NewSimRunner(e.cluster),
		News:    &newsfeed.Client{BaseURL: e.feedSrv.URL, HTTPClient: e.feedSrv.Client()},
		Storage: e.storage, Users: e.users, Logs: e.logs,
		Clock: e.clock, Events: e.cluster.Ctl, RollupStats: e.cluster.DBD.RollupStats,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(s.Close)
	return s
}

// serve runs an authenticated GET on s in process and returns status + body.
func serve(s *Server, user, path string) (int, []byte) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set(auth.UserHeader, user)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// submit enqueues a job with sensible defaults and runs a scheduling tick.
func (e *env) submit(req slurm.SubmitRequest) slurm.JobID {
	e.t.Helper()
	if req.Name == "" {
		req.Name = "job"
	}
	if req.QOS == "" {
		req.QOS = "normal"
	}
	if req.TimeLimit == 0 {
		req.TimeLimit = time.Hour
	}
	if req.Profile.CPUUtilization == 0 {
		req.Profile.CPUUtilization = 0.8
	}
	if req.Profile.MemUtilization == 0 {
		req.Profile.MemUtilization = 0.5
	}
	id, err := e.cluster.Ctl.Submit(req)
	if err != nil {
		e.t.Fatal(err)
	}
	e.cluster.Ctl.Tick()
	return id
}

// advance moves time forward and ticks the scheduler.
func (e *env) advance(d time.Duration) {
	e.clock.Advance(d)
	e.cluster.Ctl.Tick()
}

// get performs an authenticated GET and returns status + body.
func (e *env) get(user, path string) (int, []byte) {
	e.t.Helper()
	req, err := http.NewRequest("GET", e.web.URL+path, nil)
	if err != nil {
		e.t.Fatal(err)
	}
	if user != "" {
		req.Header.Set(auth.UserHeader, user)
	}
	resp, err := e.web.Client().Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	return resp.StatusCode, body
}

// getFull performs an authenticated GET and returns status + headers + body.
func (e *env) getFull(user, path string) (int, http.Header, []byte) {
	e.t.Helper()
	req, err := http.NewRequest("GET", e.web.URL+path, nil)
	if err != nil {
		e.t.Fatal(err)
	}
	if user != "" {
		req.Header.Set(auth.UserHeader, user)
	}
	resp, err := e.web.Client().Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// getJSON performs an authenticated GET and decodes the response into out,
// failing the test on non-200.
func (e *env) getJSON(user, path string, out any) {
	e.t.Helper()
	status, body := e.get(user, path)
	if status != http.StatusOK {
		e.t.Fatalf("GET %s as %s: status %d: %s", path, user, status, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		e.t.Fatalf("GET %s: decoding: %v\n%s", path, err, body)
	}
}

// wantStatus asserts the response code of a GET.
func (e *env) wantStatus(user, path string, want int) {
	e.t.Helper()
	status, body := e.get(user, path)
	if status != want {
		e.t.Fatalf("GET %s as %q: status %d, want %d: %s", path, user, status, want, body)
	}
}

// jobIDStr formats a job ID the way routes expect it.
func jobIDStr(id slurm.JobID) string { return fmt.Sprintf("%d", id) }
