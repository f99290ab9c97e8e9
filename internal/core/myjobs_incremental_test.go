// Differential tests for the incremental My Jobs refill. A long-lived
// server keeps one snapshot per user and relative range and brings it up to
// date with a delta sacct; a server built fresh at the same instant fills
// from a full sacct. Their bodies must be byte-identical. This file is in
// package core_test because it builds its clusters with internal/workload,
// which imports core.
package core_test

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/clock"
	"ooddash/internal/core"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
	"ooddash/internal/workload"
)

// myJobsRanges is every relative range the My Jobs page offers.
var myJobsRanges = []string{"24h", "7d", "30d", "90d", "1y", "all"}

// serveAs runs one authenticated GET against a server in process.
func serveAs(s *core.Server, user, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set(auth.UserHeader, user)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// myJobsOracle drives long-lived servers over one simulated cluster through
// random clock moves and cluster writes, and after every move requires each
// of them to serve the My Jobs table and charts exactly as a cold server
// does.
type myJobsOracle struct {
	clk   *clock.Sim
	ttl   time.Duration // the servers' JobHistory TTL
	warm  map[string]*core.Server
	cold  func() (*core.Server, error)
	users []string
	// write applies the cluster writes that follow a clock move.
	write func(rng *rand.Rand)
}

func (o *myJobsOracle) run(t *testing.T, rng *rand.Rand, steps int) {
	t.Helper()
	o.compare(t, 0, nil)
	for step := 1; step <= steps; step++ {
		// Mostly moves inside the JobHistory TTL (the delta path), some past
		// it (a full refill), with sub-second jitter so the second-granular
		// sacct bounds are exercised.
		d := time.Duration(1+rng.Intn(110)) * time.Second
		if rng.Intn(5) == 0 {
			d = o.ttl + time.Duration(rng.Intn(300))*time.Second
		}
		if rng.Intn(3) == 0 {
			d += time.Duration(rng.Intn(1000)) * time.Millisecond
		}
		o.clk.Advance(d)
		o.write(rng)
		o.compare(t, step, rng)
		if t.Failed() {
			return
		}
	}
}

// compare checks every user and range when rng is nil, otherwise a random
// third of them: a pair left out keeps its snapshot for longer, so the gaps
// between refills vary too.
func (o *myJobsOracle) compare(t *testing.T, step int, rng *rand.Rand) {
	t.Helper()
	cold, err := o.cold()
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	for _, user := range o.users {
		for _, r := range myJobsRanges {
			if rng != nil && rng.Intn(3) != 0 {
				continue
			}
			for _, path := range []string{"/api/myjobs?range=" + r, "/api/myjobs/charts?range=" + r} {
				want := serveAs(cold, user, path)
				if want.Code != http.StatusOK {
					t.Fatalf("step %d: cold %s as %s: status %d: %s", step, path, user, want.Code, want.Body)
				}
				for name, s := range o.warm {
					got := serveAs(s, user, path)
					if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
						t.Errorf("step %d at %s: %s %s as %s: status %d, body differs from a cold fill\n%s: %.300s\ncold: %.300s",
							step, o.clk.Now().Format(time.RFC3339Nano), name, path, user, got.Code, name, got.Body, want.Body)
						return
					}
				}
			}
		}
	}
}

// smallEnv builds the small generated cluster with a news server for it.
func smallEnv(t *testing.T) (*workload.Env, string) {
	t.Helper()
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	news := httptest.NewServer(env.Feed)
	t.Cleanup(news.Close)
	return env, news.URL
}

// oracleUsers picks the first generated user, the first one with two
// accounts, and adds a user spanning the first two groups.
func oracleUsers(t *testing.T, env *workload.Env) []string {
	t.Helper()
	users := []string{env.UserNames[0]}
	for _, name := range env.UserNames[1:] {
		if u, ok := env.Users.Lookup(name); ok && len(u.Accounts) > 1 {
			users = append(users, name)
			break
		}
	}
	env.Users.AddUser(auth.User{Name: "multiacct", Accounts: env.GroupNames[:2]})
	return append(users, "multiacct")
}

// TestMyJobsIncrementalMatchesFullRefill is the tentpole oracle on the
// generated cluster: a CLI-backed and a REST-backed server follow random
// clock moves, job submissions and scheduler ticks, and after every move
// both serve exactly what a cold server serves, for every relative range
// and a multi-account user.
func TestMyJobsIncrementalMatchesFullRefill(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			env, newsURL := smallEnv(t)
			users := oracleUsers(t, env)
			restCfg := core.Config{Backend: core.BackendConfig{Slurmdbd: core.BackendREST}}
			o := &myJobsOracle{
				clk:   env.Clock,
				warm:  map[string]*core.Server{},
				cold:  func() (*core.Server, error) { return env.NewServerConfig(newsURL, core.Config{}) },
				users: users,
				write: func(rng *rand.Rand) {
					if rng.Intn(2) == 0 {
						env.SubmitRandom(rng, 1+rng.Intn(4))
					} else {
						env.Cluster.Ctl.Tick()
					}
				},
			}
			for name, cfg := range map[string]core.Config{"cli": {}, "rest": restCfg} {
				s, err := env.NewServerConfig(newsURL, cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				o.warm[name] = s
				o.ttl = s.Config().TTLs.JobHistory
			}
			before := env.Cluster.DBD.Stats().Count(slurm.RPCSacct)
			o.run(t, rand.New(rand.NewSource(seed)), 16)
			if env.Cluster.DBD.Stats().Count(slurm.RPCSacct) == before {
				t.Fatal("no sacct ran")
			}
		})
	}
}

// preemptStack is a two-node cluster whose standby tier is preempted by
// normal work, so running jobs are requeued while My Jobs is being served.
func preemptStack(t *testing.T) (*slurm.Cluster, *clock.Sim, func() (*core.Server, error)) {
	t.Helper()
	clk := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	cl, err := slurm.NewCluster(slurm.ClusterConfig{
		Name: "preempt",
		Nodes: []slurm.NodeSpec{
			{NamePrefix: "c", Count: 2, CPUs: 8, MemMB: 16 * 1024, Partitions: []string{"cpu", "standby"}},
		},
		Partitions: []slurm.PartitionSpec{
			{Name: "cpu", MaxTime: 24 * time.Hour, Default: true, Priority: 100},
			{Name: "standby", MaxTime: 4 * time.Hour, Priority: 0},
		},
		QOS: []slurm.QOS{
			{Name: "normal"},
			{Name: "standby", Priority: -500, Preemptable: true},
		},
		Associations: []slurm.Association{
			{Account: "lab"}, {Account: "lab", User: "alice"}, {Account: "lab", User: "bob"},
			{Account: "lab2"}, {Account: "lab2", User: "bob"},
		},
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	dir := auth.NewDirectory()
	dir.AddUser(auth.User{Name: "alice", Accounts: []string{"lab"}})
	dir.AddUser(auth.User{Name: "bob", Accounts: []string{"lab", "lab2"}})
	logs := core.NewMemLogStore()
	return cl, clk, func() (*core.Server, error) {
		return core.NewServer(core.Config{ClusterName: "preempt"}, core.Deps{
			Runner: slurmcli.NewSimRunner(cl), Users: dir, Logs: logs, Clock: clk, Events: cl.Ctl,
		})
	}
}

// TestMyJobsIncrementalMatchesFullRefillUnderRequeue runs the oracle where
// standby jobs are preempted and requeued between refills: a requeued job
// loses its start time and allocation and must be replaced, not kept.
func TestMyJobsIncrementalMatchesFullRefillUnderRequeue(t *testing.T) {
	cl, clk, build := preemptStack(t)
	warm, err := build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(warm.Close)
	submit := func(user, account, part, qos string, d time.Duration) {
		_, err := cl.Ctl.Submit(slurm.SubmitRequest{
			Name: part + "-job", User: user, Account: account, Partition: part, QOS: qos,
			ReqTRES: slurm.TRES{CPUs: 8, MemMB: 1024}, TimeLimit: 4 * time.Hour,
			Profile: slurm.UsageProfile{ActualDuration: d, CPUUtilization: 0.7, MemUtilization: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	o := &myJobsOracle{
		clk:   clk,
		ttl:   warm.Config().TTLs.JobHistory,
		warm:  map[string]*core.Server{"cli": warm},
		cold:  build,
		users: []string{"alice", "bob"},
		write: func(rng *rand.Rand) {
			if rng.Intn(2) == 0 {
				submit("bob", []string{"lab", "lab2"}[rng.Intn(2)], "standby", "standby",
					time.Duration(30+rng.Intn(1200))*time.Second)
			}
			if rng.Intn(3) == 0 {
				submit("alice", "lab", "cpu", "normal", time.Duration(30+rng.Intn(600))*time.Second)
			}
			cl.Ctl.Tick()
		},
	}
	o.run(t, rand.New(rand.NewSource(7)), 40)
	requeues := 0
	for _, e := range cl.Ctl.EventsSince(0, 0) {
		if e.Kind == slurm.EventPreempted {
			requeues++
		}
	}
	if requeues == 0 {
		t.Fatal("the scenario preempted no job; the requeue path went untested")
	}
}

// TestMyJobsBackfilledRecordWithinJobHistoryTTL loads an accounting record
// that ended before the snapshot's asOf — invisible to a delta sacct — and
// requires it on the page once one JobHistory TTL has passed since the last
// full refill.
func TestMyJobsBackfilledRecordWithinJobHistoryTTL(t *testing.T) {
	env, newsURL := smallEnv(t)
	s, err := env.NewServerConfig(newsURL, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	user := env.UserNames[0]
	u, _ := env.Users.Lookup(user)
	const path = "/api/myjobs?range=24h"
	if rec := serveAs(s, user, path); rec.Code != http.StatusOK {
		t.Fatalf("warm: status %d", rec.Code)
	}
	fullAt := env.Clock.Now()

	env.Clock.Advance(10 * time.Second)
	end := env.Clock.Now().Add(-time.Hour)
	loaded := env.Cluster.DBD.Backfill([]*slurm.Job{{
		ID: slurm.JobID(1 << 30), Name: "late-record", User: user, Account: u.Accounts[0],
		Partition: "cpu", QOS: "normal", State: slurm.StateCompleted,
		SubmitTime: end.Add(-2 * time.Hour), StartTime: end.Add(-time.Hour), EndTime: end,
		TimeLimit: 2 * time.Hour, ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024, Nodes: 1},
		AllocTRES: slurm.TRES{CPUs: 2, MemMB: 1024, Nodes: 1},
	}})
	if loaded != 1 {
		t.Fatalf("backfilled %d records", loaded)
	}

	ttl := s.Config().TTLs.JobHistory
	for env.Clock.Now().Sub(fullAt) < ttl {
		env.Clock.Advance(15 * time.Second)
		if strings.Contains(serveAs(s, user, path).Body.String(), `"late-record"`) {
			return
		}
	}
	t.Fatalf("backfilled record not served %v after the last full refill", env.Clock.Now().Sub(fullAt))
}

// TestMyJobsOutageServesRetainedSnapshot takes slurmdbd down after the
// snapshot's one-second freshness has lapsed: the retained snapshot is
// served degraded, with the rows it held.
func TestMyJobsOutageServesRetainedSnapshot(t *testing.T) {
	env, newsURL := smallEnv(t)
	s, err := env.NewServerConfig(newsURL, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	user := env.UserNames[0]
	const path = "/api/myjobs?range=7d"
	warm := serveAs(s, user, path)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm: status %d", warm.Code)
	}

	env.Clock.Advance(30 * time.Second)
	env.Cluster.DBD.SetHealth(slurm.HealthDown, "outage drill")
	rec := serveAs(s, user, path)
	if rec.Code != http.StatusOK || rec.Header().Get("X-OODDash-Degraded") != "stale" {
		t.Fatalf("during outage: status %d, degraded header %q", rec.Code, rec.Header().Get("X-OODDash-Degraded"))
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"degraded":true,"age_seconds":30}`) {
		t.Fatalf("degraded body lacks the annotation: %.200s", body[max(0, len(body)-200):])
	}
	if want := strings.TrimSuffix(warm.Body.String(), "}\n"); !strings.HasPrefix(body, want) {
		t.Fatal("degraded body is not the retained snapshot")
	}

	env.Cluster.DBD.SetHealth(slurm.HealthUp, "")
	if rec := serveAs(s, user, path); rec.Code != http.StatusOK || rec.Header().Get("X-OODDash-Degraded") != "" {
		t.Fatalf("after recovery: status %d, degraded header %q", rec.Code, rec.Header().Get("X-OODDash-Degraded"))
	}
}

// TestMyJobsCacheEntriesConstantAsClockMoves guards against one copy of a
// user's rows per second of clock: however far the clock moves, a user has
// one cache entry per range viewed.
func TestMyJobsCacheEntriesConstantAsClockMoves(t *testing.T) {
	env, newsURL := smallEnv(t)
	s, err := env.NewServerConfig(newsURL, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	user := env.UserNames[0]
	view := func() {
		for _, path := range []string{"/api/myjobs?range=7d", "/api/myjobs/charts?range=7d", "/api/myjobs?range=24h"} {
			if rec := serveAs(s, user, path); rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", path, rec.Code)
			}
		}
	}
	view()
	want := s.Cache().Len()
	for i := 0; i < 10; i++ {
		env.Clock.Advance(7 * time.Second)
		view()
		if got := s.Cache().Len(); got != want {
			t.Fatalf("after %d clock moves the cache holds %d entries, want %d", i+1, got, want)
		}
	}
}
