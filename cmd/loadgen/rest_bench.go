// REST backend A/B benchmark (-backend-ab): the transport/encoding
// comparison behind the -backend flag. One small simulated cluster is built
// and frozen (the clock never advances), then the same query mix runs three
// ways against it:
//
//   - cli:       the typed CLI client — format flags in, fixed-width text
//     out, parsed row by row (the shell-out path, minus the shell);
//   - rest_cold: the slurmrestd-style JSON API with client revalidation
//     off — the daemon builds wire structs and marshals, the typed client
//     decodes the full body every time (the worst-case fill);
//   - rest:      the client as the dashboard runs it — If-None-Match
//     revalidation on, so unchanged responses come back 304 and the
//     previously decoded envelope is reused. The server still executes the
//     full build+marshal fill each request (it keeps no response cache);
//     only the client's redundant decode is skipped.
//
// The rest side is the gated one (-max-rest-p95-ratio): it is the fill
// path of a REST-backed dashboard in steady state, where most refreshes
// find the data unchanged. rest_cold is reported (and optionally gated via
// -max-rest-cold-p95-ratio) to keep the raw decode-JSON vs parse-text cost
// visible — JSON decoding a bulk response costs more than parsing the
// CLI's text, which is exactly why the client revalidates.
//
// Before timing, each op's rows are compared DeepEqual across backends; a
// mismatch fails the run, because a faster backend returning different
// data is not an optimization.
//
// The same run probes the token-scope matrix with real tokens from the
// workload provisioner: a user token must see other users' records redacted
// (and its own in full), a service token must get 403 on jobs/accounting,
// a user token 403 on diag, and a staff token nothing redacted. Any
// violation fails the run — the zero-violation gate `make bench-rest` relies
// on. The latency gate is -max-rest-p95-ratio over the pooled request mix.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"ooddash/internal/slurmcli"
	"ooddash/internal/slurmrest"
	"ooddash/internal/workload"
)

// abSide is one backend's measurements for one op.
type abSide struct {
	Requests    int     `json:"requests"`
	Rows        int     `json:"rows"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// abOpReport groups the sides for one op.
type abOpReport struct {
	CLI          abSide  `json:"cli_parse_text"`
	RESTCold     abSide  `json:"rest_cold_decode_json"`
	REST         abSide  `json:"rest_revalidate"`
	P95RatioCold float64 `json:"p95_ratio_rest_cold_vs_cli"`
	P95Ratio     float64 `json:"p95_ratio_rest_vs_cli"`
}

// scopeReport summarizes the token-scope probes.
type scopeReport struct {
	Checks     int      `json:"checks"`
	Violations int      `json:"violations"`
	Detail     []string `json:"violations_detail,omitempty"`
}

// restReport is the BENCH_rest.json snapshot.
type restReport struct {
	Kind               string                `json:"kind"` // "rest_ab"
	GeneratedAt        time.Time             `json:"generated_at"`
	RoundsPerOp        int                   `json:"rounds_per_op"`
	Ops                map[string]abOpReport `json:"ops"`
	PooledP95RatioCold float64               `json:"pooled_p95_ratio_rest_cold_vs_cli"`
	PooledP95Ratio     float64               `json:"pooled_p95_ratio_rest_vs_cli"`
	ScopeProbes        scopeReport           `json:"scope_probes"`
}

// abOp is one query of the mix, with both implementations returning the
// comparable row slice. The rest side takes the client so the harness can
// run it once cold (revalidation off) and once as the dashboard would.
type abOp struct {
	name string
	cli  func() (any, error)
	rest func(c *slurmrest.Client) (any, error)
}

// timeSide runs fn rounds times and reports latency percentiles and exact
// allocs/op for that side of the A/B; the latencies also feed the pooled
// gate.
func timeSide(name, side string, fn func() (any, error), rounds int, pool *[]time.Duration) (abSide, error) {
	lats := make([]time.Duration, 0, rounds)
	rows := 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		out, err := fn()
		lats = append(lats, time.Since(t0))
		if err != nil {
			return abSide{}, fmt.Errorf("%s/%s: %w", name, side, err)
		}
		rows = reflect.ValueOf(out).Len()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	*pool = append(*pool, lats...)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return abSide{
		Requests:    rounds,
		Rows:        rows,
		P50Ms:       ms100(percentile(lats, 0.50)),
		P95Ms:       ms100(percentile(lats, 0.95)),
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(rounds),
		AllocsPerOp: float64(ms.Mallocs-mallocs) / float64(rounds),
	}, nil
}

// restGet performs one authenticated request against the in-process REST
// daemon and decodes the body into out (which may be nil for status-only
// probes).
func restGet(h http.Handler, token, path string, out any) int {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Authorization", "Bearer "+token)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			log.Fatalf("rest A/B: decoding %s: %v", path, err)
		}
	}
	return rec.Code
}

// runScopeProbes exercises the token-scope matrix with the provisioned
// tokens and returns one violation string per broken rule.
func runScopeProbes(env *workload.Env) scopeReport {
	rep := scopeReport{}
	check := func(violated bool, format string, args ...any) {
		rep.Checks++
		if violated {
			rep.Violations++
			rep.Detail = append(rep.Detail, fmt.Sprintf(format, args...))
		}
	}

	me := env.UserNames[0]
	userTok := env.RESTTokens.ByUser[me]

	// A user token sees its own records in full and everyone else's
	// redacted — on the live queue and in accounting.
	var jobs slurmrest.JobsResponse
	check(restGet(env.REST, userTok, "/slurm/v1/jobs?all_states=true", &jobs) != http.StatusOK,
		"user token: jobs status != 200")
	for _, j := range jobs.Jobs {
		if j.User == me {
			check(j.Redacted, "user token: own job %s redacted", j.JobID)
		} else {
			check(!j.Redacted || j.Name != "",
				"user token: job %s of %s not redacted", j.JobID, j.User)
		}
	}
	var acct slurmrest.AccountingResponse
	check(restGet(env.REST, userTok, "/slurm/v1/accounting?limit=500", &acct) != http.StatusOK,
		"user token: accounting status != 200")
	for _, j := range acct.Jobs {
		if j.User == me {
			check(j.Redacted, "user token: own accounting job %s redacted", j.JobID)
		} else {
			check(!j.Redacted || j.Name != "" || j.WorkDir != "",
				"user token: accounting job %s of %s not redacted", j.JobID, j.User)
		}
	}

	// A service token reads infrastructure endpoints but never job data.
	svc := env.RESTTokens.Service
	check(restGet(env.REST, svc, "/slurm/v1/jobs", nil) != http.StatusForbidden,
		"service token: jobs not 403")
	check(restGet(env.REST, svc, "/slurm/v1/accounting", nil) != http.StatusForbidden,
		"service token: accounting not 403")
	check(restGet(env.REST, svc, "/slurm/v1/nodes", nil) != http.StatusOK,
		"service token: nodes not 200")
	check(restGet(env.REST, svc, "/slurm/v1/diag", nil) != http.StatusOK,
		"service token: diag not 200")

	// Users never see scheduler diagnostics; staff sees everything in full.
	check(restGet(env.REST, userTok, "/slurm/v1/diag", nil) != http.StatusForbidden,
		"user token: diag not 403")
	var staffJobs slurmrest.JobsResponse
	check(restGet(env.REST, env.RESTTokens.Dashboard, "/slurm/v1/jobs?all_states=true", &staffJobs) != http.StatusOK,
		"staff token: jobs status != 200")
	for _, j := range staffJobs.Jobs {
		check(j.Redacted, "staff token: job %s redacted", j.JobID)
	}

	// No token at all is a 401, not a quiet empty result.
	check(restGet(env.REST, "", "/slurm/v1/jobs", nil) != http.StatusUnauthorized,
		"anonymous: jobs not 401")
	return rep
}

// pooledRatio sorts both pools and returns their p95 ratio.
func pooledRatio(num, den []time.Duration) float64 {
	sort.Slice(num, func(i, j int) bool { return num[i] < num[j] })
	sort.Slice(den, func(i, j int) bool { return den[i] < den[j] })
	d := percentile(den, 0.95)
	if d == 0 {
		return 0
	}
	return float64(percentile(num, 0.95)) / float64(d)
}

// runRESTBench builds the stack, verifies row equivalence, times the
// backends over the same mix, runs the scope probes, writes BENCH_rest.json,
// and applies the p95-ratio and zero-violation gates.
func runRESTBench(rounds int, benchOut string, maxP95Ratio, maxColdRatio float64) {
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		log.Fatalf("rest A/B: workload: %v", err)
	}
	// The daemon keeps no response cache: every REST request below executes
	// the full server-side fill, matching the CLI side's per-call re-format;
	// only client revalidation separates the REST sides.
	if err := env.ProvisionREST(slurmrest.Options{}); err != nil {
		log.Fatalf("rest A/B: provisioning REST: %v", err)
	}
	runner := env.Runner
	steady := slurmrest.NewClient(env.REST, env.RESTTokens.Dashboard)
	cold := slurmrest.NewClient(env.REST, env.RESTTokens.Dashboard)
	cold.NoConditional = true
	ctx := context.Background()
	now := env.Clock.Now()
	window := slurmcli.SacctOptions{AllUsers: true, Start: now.Add(-24 * time.Hour), End: now}

	ops := []abOp{
		{
			name: "jobs",
			cli:  func() (any, error) { return slurmcli.Squeue(runner, slurmcli.SqueueOptions{AllStates: true}) },
			rest: func(c *slurmrest.Client) (any, error) { return c.Squeue(ctx, slurmcli.SqueueOptions{AllStates: true}) },
		},
		{
			name: "accounting",
			cli:  func() (any, error) { return slurmcli.Sacct(runner, window) },
			rest: func(c *slurmrest.Client) (any, error) { return c.Sacct(ctx, window) },
		},
		{
			name: "partitions",
			cli:  func() (any, error) { return slurmcli.Sinfo(runner) },
			rest: func(c *slurmrest.Client) (any, error) { return c.Sinfo(ctx) },
		},
		{
			name: "nodes",
			cli:  func() (any, error) { return slurmcli.ShowAllNodes(runner) },
			rest: func(c *slurmrest.Client) (any, error) { return c.ShowAllNodes(ctx) },
		},
	}

	// Equivalence first: a backend swap that changes row values would make
	// the timing comparison meaningless. Running it through the steady
	// client also warms its revalidation cache, so its timed phase below is
	// the 304 path from the first request. The second steady call checks
	// that revalidated rows are still equal, not just the fresh decode.
	for _, op := range ops {
		c, err := op.cli()
		if err != nil {
			log.Fatalf("rest A/B: %s/cli: %v", op.name, err)
		}
		for _, pass := range []string{"fresh", "revalidated"} {
			r, err := op.rest(steady)
			if err != nil {
				log.Fatalf("rest A/B: %s/rest (%s): %v", op.name, pass, err)
			}
			if !reflect.DeepEqual(c, r) {
				log.Fatalf("rest A/B: %s: CLI and REST (%s) rows differ", op.name, pass)
			}
		}
	}
	log.Printf("rest A/B: row equivalence verified across %d ops; %d rounds per op per side", len(ops), rounds)

	var cliPool, coldPool, steadyPool []time.Duration
	opReports := make(map[string]abOpReport, len(ops))
	fmt.Printf("\n%-12s %-10s %8s %6s %10s %10s %12s %12s\n",
		"op", "side", "requests", "rows", "p50(ms)", "p95(ms)", "ns/op", "allocs/op")
	for _, op := range ops {
		cliS, err := timeSide(op.name, "cli", op.cli, rounds, &cliPool)
		if err != nil {
			log.Fatalf("rest A/B: %v", err)
		}
		coldS, err := timeSide(op.name, "rest_cold", func() (any, error) { return op.rest(cold) }, rounds, &coldPool)
		if err != nil {
			log.Fatalf("rest A/B: %v", err)
		}
		steadyS, err := timeSide(op.name, "rest", func() (any, error) { return op.rest(steady) }, rounds, &steadyPool)
		if err != nil {
			log.Fatalf("rest A/B: %v", err)
		}
		rep := abOpReport{CLI: cliS, RESTCold: coldS, REST: steadyS}
		if cliS.P95Ms > 0 {
			rep.P95RatioCold = coldS.P95Ms / cliS.P95Ms
			rep.P95Ratio = steadyS.P95Ms / cliS.P95Ms
		}
		opReports[op.name] = rep
		for _, row := range []struct {
			side string
			s    abSide
		}{{"cli", cliS}, {"rest_cold", coldS}, {"rest", steadyS}} {
			fmt.Printf("%-12s %-10s %8d %6d %10.3f %10.3f %12.0f %12.1f\n",
				op.name, row.side, row.s.Requests, row.s.Rows, row.s.P50Ms, row.s.P95Ms, row.s.NsPerOp, row.s.AllocsPerOp)
		}
	}

	pooledCold := pooledRatio(coldPool, cliPool)
	pooled := pooledRatio(steadyPool, cliPool)
	fmt.Printf("\npooled p95 ratio (rest_cold / cli): %.2fx\n", pooledCold)
	fmt.Printf("pooled p95 ratio (rest / cli):      %.2fx\n", pooled)

	probes := runScopeProbes(env)
	fmt.Printf("scope probes: %d checks, %d violations\n", probes.Checks, probes.Violations)
	for _, d := range probes.Detail {
		fmt.Printf("  VIOLATION: %s\n", d)
	}

	if benchOut != "" {
		rep := restReport{
			Kind:               "rest_ab",
			GeneratedAt:        time.Now().UTC(),
			RoundsPerOp:        rounds,
			Ops:                opReports,
			PooledP95RatioCold: pooledCold,
			PooledP95Ratio:     pooled,
			ScopeProbes:        probes,
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("encoding rest A/B snapshot: %v", err)
		}
		if err := os.WriteFile(benchOut, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("writing %s: %v", benchOut, err)
		}
		log.Printf("rest A/B snapshot written to %s", benchOut)
	}

	if probes.Violations > 0 {
		log.Printf("FAIL: %d token-scope violations", probes.Violations)
		os.Exit(1)
	}
	if maxP95Ratio >= 0 && pooled > maxP95Ratio {
		log.Printf("FAIL: pooled REST p95 is %.2fx the CLI p95, above -max-rest-p95-ratio %.2f",
			pooled, maxP95Ratio)
		os.Exit(1)
	}
	if maxColdRatio >= 0 && pooledCold > maxColdRatio {
		log.Printf("FAIL: pooled cold REST p95 is %.2fx the CLI p95, above -max-rest-cold-p95-ratio %.2f",
			pooledCold, maxColdRatio)
		os.Exit(1)
	}
}
