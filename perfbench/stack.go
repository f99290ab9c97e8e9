package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/core"
	"ooddash/internal/newsfeed"
	"ooddash/internal/slurmcli"
	"ooddash/internal/slurmrest"
	"ooddash/internal/workload"
)

// staffUser is the admin account cmd/dashboard registers at start-up.
const staffUser = "staff"

// productionConfig is the core configuration cmd/dashboard builds from its
// default flags: push on with a 15s heartbeat, every request traced into a
// 256-entry tail-sampled store with a 500ms slow class, SLO recording on.
// Only the backend varies by workload (cmd/dashboard's -backend flag).
func productionConfig(backend core.BackendConfig) core.Config {
	return core.Config{
		Push:    core.PushConfig{Heartbeat: 15 * time.Second},
		Trace:   core.TraceConfig{Sample: 1, Slow: 500 * time.Millisecond, StoreMax: 256},
		Backend: backend,
	}
}

// stack is one running dashboard: the generated environment, its news API,
// the core server behind a loopback listener, and (in traced runs) the
// layer meter whose wrappers sit on the server's dependencies.
type stack struct {
	env     *workload.Env
	srv     *core.Server
	newsURL string
	baseURL string
	meter   *meter // nil in untraced runs

	newsHTTP *http.Server
	dashHTTP *http.Server
	served   chan error // one value per http.Server once Serve returns
}

// buildEnv generates the environment and registers the staff account, as
// cmd/dashboard does. rest also starts the in-process REST daemon the REST
// backend reads through.
func buildEnv(spec workload.Spec, rest bool) (*workload.Env, error) {
	env, err := workload.Build(spec)
	if err != nil {
		return nil, err
	}
	env.Users.AddUser(auth.User{Name: staffUser, FullName: "Center Staff", Admin: true})
	if rest {
		if err := env.ProvisionREST(slurmrest.Options{}); err != nil {
			return nil, fmt.Errorf("provision REST: %w", err)
		}
	}
	return env, nil
}

// newServer mirrors workload.Env.NewServerRunner, with the meter's timing
// wrappers on the Slurm runner, the REST client's handler and the log store
// when m is non-nil. With m nil the dependencies are exactly the ones
// NewServerRunner passes.
func newServer(env *workload.Env, newsURL string, cfg core.Config, m *meter) (*core.Server, error) {
	cfg.ClusterName = env.Cluster.Name
	var (
		runner slurmcli.Runner = env.Runner
		logs   core.LogStore   = env.Logs
		rest   http.Handler    = env.REST
	)
	if m != nil {
		runner = &timedRunner{next: env.Runner, m: m}
		logs = timedLogs{next: env.Logs, m: m}
		rest = timedHandler{next: env.REST, m: m}
	}
	deps := core.Deps{
		Runner:      runner,
		News:        &newsfeed.Client{BaseURL: newsURL},
		Storage:     env.Storage,
		Users:       env.Users,
		Logs:        logs,
		Clock:       env.Clock,
		Events:      env.Cluster.Ctl,
		RollupStats: env.Cluster.DBD.RollupStats,
	}
	if usesREST(cfg.Backend) {
		deps.REST = slurmrest.NewClient(rest, env.RESTTokens.Dashboard)
		deps.RESTServer = env.REST
	}
	return core.NewServer(cfg, deps)
}

func usesREST(b core.BackendConfig) bool {
	return b.Slurmctld == core.BackendREST || b.Slurmdbd == core.BackendREST
}

// startStack serves the dashboard over env and the news API on loopback
// sockets with cmd/dashboard's http.Server timeouts.
func startStack(env *workload.Env, backend core.BackendConfig, traced bool) (*stack, error) {
	st := &stack{env: env, served: make(chan error, 2)}
	if traced {
		st.meter = &meter{}
	}
	var feed http.Handler = env.Feed
	if st.meter != nil {
		feed = timedFeed{next: env.Feed, m: st.meter}
	}
	newsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.newsURL = "http://" + newsLn.Addr().String() + "/"
	st.newsHTTP = &http.Server{Handler: feed, ReadHeaderTimeout: 10 * time.Second}
	go func() { st.served <- st.newsHTTP.Serve(newsLn) }()

	st.srv, err = newServer(env, st.newsURL, productionConfig(backend), st.meter)
	if err != nil {
		st.close()
		return nil, err
	}
	var h http.Handler = st.srv
	if st.meter != nil {
		h = timedServer{next: st.srv, m: st.meter}
	}
	dashLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.baseURL = "http://" + dashLn.Addr().String()
	st.dashHTTP = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	go func() { st.served <- st.dashHTTP.Serve(dashLn) }()
	return st, nil
}

// close ends the push streams, shuts both listeners down and waits for
// their Serve loops to return.
func (st *stack) close() {
	if st.srv != nil {
		st.srv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, hs := range []*http.Server{st.dashHTTP, st.newsHTTP} {
		if hs == nil {
			continue
		}
		_ = hs.Shutdown(ctx) // a stream still open at the deadline is cut by Close below
		_ = hs.Close()
		if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("serve: %v", err)
		}
	}
}
