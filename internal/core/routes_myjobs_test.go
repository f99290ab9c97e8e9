package core

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/efficiency"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// seedMixedHistory creates a spread of jobs: completed, failed, pending,
// running, an interactive session, and a GPU job, across alice and bob.
func seedMixedHistory(e *env) {
	// alice: completed efficient batch job.
	e.submit(slurm.SubmitRequest{
		Name: "good-batch", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 4096}, TimeLimit: 2 * time.Hour,
		Profile: slurm.UsageProfile{ActualDuration: 90 * time.Minute,
			CPUUtilization: 0.9, MemUtilization: 0.8},
	})
	// alice: wasteful interactive jupyter session.
	e.submit(slurm.SubmitRequest{
		Name: "sys/dashboard/jupyter", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 8, MemMB: 16 * 1024}, TimeLimit: 8 * time.Hour,
		InteractiveApp: "jupyter", SessionID: "sess-42",
		Profile: slurm.UsageProfile{ActualDuration: 30 * time.Minute,
			CPUUtilization: 0.05, MemUtilization: 0.05},
	})
	// bob: failed job.
	e.submit(slurm.SubmitRequest{
		Name: "crashy", User: "bob", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 2048},
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute,
			FailureState: slurm.StateFailed, ExitCode: 1,
			CPUUtilization: 0.4, MemUtilization: 0.3},
	})
	// bob: GPU job.
	e.submit(slurm.SubmitRequest{
		Name: "train", User: "bob", Account: "lab-b", Partition: "gpu",
		ReqTRES: slurm.TRES{CPUs: 8, MemMB: 32 * 1024, GPUs: 2}, TimeLimit: 4 * time.Hour,
		Profile: slurm.UsageProfile{ActualDuration: 2 * time.Hour,
			CPUUtilization: 0.7, MemUtilization: 0.6, GPUUtilization: 0.9},
	})
	// Let everything finish.
	e.advance(3 * time.Hour)
	// alice: one still-running job, with some elapsed time on the clock.
	e.submit(slurm.SubmitRequest{
		Name: "still-going", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024}, TimeLimit: 6 * time.Hour,
		Profile: slurm.UsageProfile{ActualDuration: 5 * time.Hour,
			CPUUtilization: 0.8, MemUtilization: 0.5},
	})
	e.advance(15 * time.Minute)
}

func TestMyJobsTable(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=24h", &resp)
	// alice sees her own 3 jobs plus bob's lab-a job, not bob's lab-b job.
	if len(resp.Jobs) != 4 {
		names := make([]string, len(resp.Jobs))
		for i, j := range resp.Jobs {
			names[i] = j.Name + "/" + j.User
		}
		t.Fatalf("rows = %v", names)
	}
	byName := make(map[string]JobRow)
	for _, j := range resp.Jobs {
		byName[j.Name] = j
	}
	if _, ok := byName["train"]; ok {
		t.Fatal("alice sees bob's lab-b job")
	}
	good := byName["good-batch"]
	if good.State != "COMPLETED" || good.QOS != "normal" {
		t.Fatalf("good-batch = %+v", good)
	}
	if good.Efficiency.CPUPercent == nil || *good.Efficiency.CPUPercent < 89 || *good.Efficiency.CPUPercent > 91 {
		t.Fatalf("good-batch cpu eff = %+v", good.Efficiency.CPUPercent)
	}
	if good.Efficiency.TimePercent == nil || *good.Efficiency.TimePercent != 75 {
		t.Fatalf("good-batch time eff = %+v", good.Efficiency.TimePercent)
	}
	if len(good.Warnings) != 0 {
		t.Fatalf("good-batch warned: %+v", good.Warnings)
	}
	jup := byName["sys/dashboard/jupyter"]
	if len(jup.Warnings) == 0 {
		t.Fatal("wasteful jupyter job got no efficiency warnings")
	}
	if jup.App != "jupyter" || jup.SessionID != "sess-42" {
		t.Fatalf("session metadata = %q %q", jup.App, jup.SessionID)
	}
	running := byName["still-going"]
	if running.State != "RUNNING" || running.ElapsedSeconds <= 0 {
		t.Fatalf("running row = %+v", running)
	}
}

func TestMyJobsNewestFirst(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=24h", &resp)
	for i := 1; i < len(resp.Jobs); i++ {
		if resp.Jobs[i].SubmitTime.After(resp.Jobs[i-1].SubmitTime) {
			t.Fatalf("rows not newest-first at %d", i)
		}
	}
}

func TestMyJobsStateFilter(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp MyJobsResponse
	e.getJSON("bob", "/api/myjobs?range=24h&state=FAILED", &resp)
	if len(resp.Jobs) != 1 || resp.Jobs[0].Name != "crashy" {
		t.Fatalf("failed filter = %+v", resp.Jobs)
	}
	if resp.Total < 2 {
		t.Fatalf("total = %d, want unfiltered count", resp.Total)
	}
}

func TestMyJobsMineFilter(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=24h&mine=1", &resp)
	for _, j := range resp.Jobs {
		if j.User != "alice" {
			t.Fatalf("mine=1 leaked %s's job", j.User)
		}
	}
	if len(resp.Jobs) != 3 {
		t.Fatalf("alice's own jobs = %d, want 3", len(resp.Jobs))
	}
}

func TestMyJobsTimeRanges(t *testing.T) {
	e := newEnv(t)
	e.submit(slurm.SubmitRequest{
		Name: "ancient", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute},
	})
	e.advance(10 * 24 * time.Hour) // finish + age out of the 7d window
	e.submit(slurm.SubmitRequest{
		Name: "recent", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute},
	})
	e.advance(time.Hour)

	var resp MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=7d", &resp)
	if len(resp.Jobs) != 1 || resp.Jobs[0].Name != "recent" {
		t.Fatalf("7d rows = %+v", resp.Jobs)
	}
	e.getJSON("alice", "/api/myjobs?range=all", &resp)
	if len(resp.Jobs) != 2 {
		t.Fatalf("all rows = %d, want 2", len(resp.Jobs))
	}

	// Custom range covering only the first job.
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	endT := start.Add(24 * time.Hour)
	path := fmt.Sprintf("/api/myjobs?range=custom&from=%s&to=%s",
		start.Format(time.RFC3339), endT.Format(time.RFC3339))
	e.getJSON("alice", path, &resp)
	if len(resp.Jobs) != 1 || resp.Jobs[0].Name != "ancient" {
		t.Fatalf("custom rows = %+v", resp.Jobs)
	}
}

func TestMyJobsBadRange(t *testing.T) {
	e := newEnv(t)
	e.wantStatus("alice", "/api/myjobs?range=fortnight", 400)
	e.wantStatus("alice", "/api/myjobs?range=custom&from=bogus&to=2026-07-01T00:00:00Z", 400)
	e.wantStatus("alice", "/api/myjobs?range=custom&from=2026-07-02T00:00:00Z&to=2026-07-01T00:00:00Z", 400)
}

func TestMyJobsCharts(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp ChartsResponse
	e.getJSON("bob", "/api/myjobs/charts?range=24h", &resp)

	// bob's scope: lab-a (alice x3 + bob crashy) + lab-b (train).
	byUser := make(map[string]UserStateBar)
	for _, b := range resp.StateDistribution {
		byUser[b.User] = b
	}
	alice := byUser["alice"]
	if alice.Total != 3 || alice.States["COMPLETED"] != 2 || alice.States["RUNNING"] != 1 {
		t.Fatalf("alice bar = %+v", alice)
	}
	bob := byUser["bob"]
	if bob.Total != 2 || bob.States["FAILED"] != 1 {
		t.Fatalf("bob bar = %+v", bob)
	}

	// GPU hours: only bob's train job used GPUs (2 GPUs x 2h = 4 GPU-hours).
	if len(resp.GPUHours) != 1 || resp.GPUHours[0].User != "bob" {
		t.Fatalf("gpu chart = %+v", resp.GPUHours)
	}
	if h := resp.GPUHours[0].GPUHours; h < 3.99 || h > 4.01 {
		t.Fatalf("gpu hours = %v, want 4", h)
	}
}

func TestJobPerfAggregates(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp JobPerfResponse
	e.getJSON("alice", "/api/jobperf?range=24h", &resp)
	if resp.TotalJobs != 2 {
		t.Fatalf("total = %d, want 2 (alice's own finished jobs)", resp.TotalJobs)
	}
	if resp.CompletedJobs != 2 {
		t.Fatalf("completed = %d", resp.CompletedJobs)
	}
	// The rollup store aggregates jobs as they finish, so the still-running
	// job is excluded; wall = 90min + 30min from the finished two.
	if resp.TotalWallSeconds < 7200 {
		t.Fatalf("wall seconds = %d", resp.TotalWallSeconds)
	}
	if resp.MeanDurationSecs <= 0 {
		t.Fatalf("mean duration = %v", resp.MeanDurationSecs)
	}
	if resp.AvgCPUEfficiency <= 0 || resp.AvgCPUEfficiency > 100 {
		t.Fatalf("avg cpu eff = %v", resp.AvgCPUEfficiency)
	}
}

func TestJobPerfScopeIsOwnJobsOnly(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var resp JobPerfResponse
	e.getJSON("bob", "/api/jobperf?range=24h", &resp)
	if resp.TotalJobs != 2 {
		t.Fatalf("bob total = %d, want 2 (his own only)", resp.TotalJobs)
	}
	if resp.FailedJobs != 1 {
		t.Fatalf("bob failed = %d, want 1", resp.FailedJobs)
	}
	if h := resp.TotalGPUHours; h < 3.99 || h > 4.01 {
		t.Fatalf("bob gpu hours = %v", h)
	}
}

func TestJobPerfEmptyRange(t *testing.T) {
	e := newEnv(t)
	var resp JobPerfResponse
	e.getJSON("carol", "/api/jobperf?range=24h", &resp)
	if resp.TotalJobs != 0 || resp.AvgWaitSeconds != 0 {
		t.Fatalf("empty resp = %+v", resp)
	}
}

// sacctRecorder wraps a runner and keeps the arguments of every sacct call.
type sacctRecorder struct {
	slurmcli.Runner
	mu    sync.Mutex
	calls [][]string
}

func (r *sacctRecorder) Run(name string, args ...string) (string, error) {
	if name == "sacct" {
		r.mu.Lock()
		r.calls = append(r.calls, args)
		r.mu.Unlock()
	}
	return r.Runner.Run(name, args...)
}

// since returns the sacct calls after the first n, and their count.
func (r *sacctRecorder) since(n int) ([][]string, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls[n:], len(r.calls)
}

// flagValue returns the value following flag in args, or "".
func flagValue(args []string, flag string) string {
	for i := 0; i+1 < len(args); i++ {
		if args[i] == flag {
			return args[i+1]
		}
	}
	return ""
}

func TestMyJobsCachedPerUserWindow(t *testing.T) {
	rec := &sacctRecorder{}
	e := newEnvWith(t, nil, func(r slurmcli.Runner) slurmcli.Runner {
		rec.Runner = r
		return rec
	})
	seedMixedHistory(e)
	_, seen := rec.since(0)
	var resp MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=24h", &resp)
	e.getJSON("alice", "/api/myjobs?range=24h", &resp)
	e.getJSON("alice", "/api/myjobs?range=24h&state=FAILED", &resp)
	e.getJSON("alice", "/api/myjobs/charts?range=24h", &resp)
	calls, seen := rec.since(seen)
	if len(calls) != 1 {
		t.Fatalf("sacct calls = %d, want 1 (cached; filters and charts reuse the entry)", len(calls))
	}
	asOf := e.clock.Now()
	if got, want := flagValue(calls[0], "-S"), slurmcli.FormatTime(asOf.Add(-24*time.Hour)); got != want {
		t.Fatalf("full fill -S = %q, want %q", got, want)
	}

	// After the clock moves, one delta sacct starting at the previous asOf
	// brings the snapshot up to date, and every view reads the new one.
	e.advance(40 * time.Second)
	e.getJSON("alice", "/api/myjobs?range=24h", &resp)
	e.getJSON("alice", "/api/myjobs/charts?range=24h", &resp)
	calls, _ = rec.since(seen)
	if len(calls) != 1 {
		t.Fatalf("sacct calls after a clock move = %d, want 1", len(calls))
	}
	if got, want := flagValue(calls[0], "-S"), slurmcli.FormatTime(asOf); got != want {
		t.Fatalf("delta sacct -S = %q, want the previous asOf %q", got, want)
	}
	if got, want := flagValue(calls[0], "-E"), slurmcli.FormatTime(e.clock.Now()); got != want {
		t.Fatalf("delta sacct -E = %q, want now %q", got, want)
	}
}

// wantColdBody requires e's server to serve path exactly as a cold server
// (one started at this instant) does.
func (e *env) wantColdBody(user, path string) []byte {
	e.t.Helper()
	status, got := e.get(user, path)
	coldStatus, cold := serve(e.newServer(nil), user, path)
	if status != http.StatusOK || coldStatus != http.StatusOK || string(got) != string(cold) {
		e.t.Fatalf("%s at %s: status %d, cold %d; bodies differ\nwarm: %s\ncold: %s",
			path, e.clock.Now().Format(time.RFC3339Nano), status, coldStatus, got, cold)
	}
	return got
}

// TestMyJobsDeltaEdges pins the two boundaries of the delta refill that
// random clock moves rarely hit: a job that ends at the very instant of the
// previous snapshot, and a job whose end the window start passes inside a
// second, which slurmdbd still counts.
func TestMyJobsDeltaEdges(t *testing.T) {
	e := newEnv(t)
	const path = "/api/myjobs?range=24h"
	id := e.submit(slurm.SubmitRequest{
		Name: "edge", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512}, TimeLimit: 4 * time.Hour,
		Profile: slurm.UsageProfile{ActualDuration: 3 * time.Hour},
	})
	e.advance(10 * time.Minute)
	e.wantColdBody("alice", path)

	// Cancelled at the snapshot's own instant: its end equals asOf, so the
	// next delta must still return it.
	if err := e.cluster.Ctl.Cancel(id, "alice"); err != nil {
		t.Fatal(err)
	}
	end := e.clock.Now()
	e.advance(5 * time.Second)
	if body := e.wantColdBody("alice", path); !strings.Contains(string(body), `"state":"CANCELLED"`) {
		t.Fatalf("cancelled job not served as cancelled: %s", body)
	}

	// A full refill a minute before the job leaves the 24h window, then a
	// delta half a second after the window start passed its end: slurmdbd
	// compares against the start truncated to the second, so the job stays.
	e.clock.Set(end.Add(24*time.Hour - time.Minute))
	e.wantColdBody("alice", path)
	e.clock.Set(end.Add(24*time.Hour + 500*time.Millisecond))
	if body := e.wantColdBody("alice", path); !strings.Contains(string(body), `"name":"edge"`) {
		t.Fatalf("job ended at the truncated window start was dropped: %s", body)
	}
	e.clock.Set(end.Add(24*time.Hour + 1500*time.Millisecond))
	if body := e.wantColdBody("alice", path); strings.Contains(string(body), `"name":"edge"`) {
		t.Fatalf("job ended before the window start was kept: %s", body)
	}
}

// TestMyJobsAccountChangeRefillsFully removes a user from an account between
// refills: the next refill must not keep the old account's rows.
func TestMyJobsAccountChangeRefillsFully(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	before := e.wantColdBody("bob", "/api/myjobs?range=24h")
	e.users.AddUser(auth.User{Name: "bob", Accounts: []string{"lab-b"}})
	e.advance(5 * time.Second)
	if after := e.wantColdBody("bob", "/api/myjobs?range=24h"); string(after) == string(before) {
		t.Fatal("dropping an account left the page unchanged")
	}
}

func TestReasonHelpWording(t *testing.T) {
	if msg, ok := explainReason(slurm.ReasonAssocGrpCpuLimit); !ok ||
		!strings.Contains(msg, "aggregate group CPU limit") {
		t.Fatalf("explainReason = %q, %v", msg, ok)
	}
	if _, ok := explainReason(slurm.ReasonNone); ok {
		t.Fatal("ReasonNone should have no help text")
	}
}

func TestMyJobsPagination(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	var page MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=24h&limit=2", &page)
	if len(page.Jobs) != 2 || page.Matched != 4 || page.Offset != 0 {
		t.Fatalf("page1 = %d rows matched %d offset %d", len(page.Jobs), page.Matched, page.Offset)
	}
	var page2 MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=24h&limit=2&offset=2", &page2)
	if len(page2.Jobs) != 2 || page2.Offset != 2 {
		t.Fatalf("page2 = %d rows offset %d", len(page2.Jobs), page2.Offset)
	}
	if page.Jobs[0].JobID == page2.Jobs[0].JobID {
		t.Fatal("pages overlap")
	}
	// Offset beyond the end yields an empty page, not an error.
	var empty MyJobsResponse
	e.getJSON("alice", "/api/myjobs?range=24h&offset=999", &empty)
	if len(empty.Jobs) != 0 {
		t.Fatalf("overflow page = %d rows", len(empty.Jobs))
	}
	e.wantStatus("alice", "/api/myjobs?limit=-1", 400)
	e.wantStatus("alice", "/api/myjobs?offset=x", 400)
}

func TestMyJobsExportCSV(t *testing.T) {
	e := newEnv(t)
	seedMixedHistory(e)
	status, body := e.get("alice", "/api/myjobs/export.csv?range=24h&mine=1")
	if status != 200 {
		t.Fatalf("status = %d: %s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 4 { // header + alice's 3 jobs
		t.Fatalf("csv lines = %d:\n%s", len(lines), body)
	}
	if !strings.HasPrefix(lines[0], "job_id,name,user") {
		t.Fatalf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if !strings.Contains(line, ",alice,") {
			t.Fatalf("mine=1 leaked: %q", line)
		}
	}
	// State filter applies to the export too.
	status, body = e.get("bob", "/api/myjobs/export.csv?range=24h&state=FAILED")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	lines = strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], "crashy") {
		t.Fatalf("failed filter:\n%s", body)
	}
}

// TestEfficiencyViewOneAllocation checks that the efficiency column keeps
// its values and nulls while sharing one allocation per row, and none for a
// job with nothing to show.
func TestEfficiencyViewOneAllocation(t *testing.T) {
	m := efficiency.Metrics{TimePercent: 50, CPUPercent: 0, MemoryPercent: -1, GPUPercent: 87.5}
	v := efficiencyView(m)
	if v.TimePercent == nil || *v.TimePercent != 50 || v.CPUPercent == nil || *v.CPUPercent != 0 ||
		v.MemoryPercent != nil || v.GPUPercent == nil || *v.GPUPercent != 87.5 {
		t.Fatalf("efficiencyView(%+v) = %+v", m, v)
	}
	if n := testing.AllocsPerRun(100, func() { sinkEfficiency = efficiencyView(m) }); n != 1 {
		t.Fatalf("efficiencyView allocates %v times, want 1", n)
	}
	none := efficiency.Metrics{TimePercent: -1, CPUPercent: -1, MemoryPercent: -1, GPUPercent: -1}
	if n := testing.AllocsPerRun(100, func() { sinkEfficiency = efficiencyView(none) }); n != 0 {
		t.Fatalf("efficiencyView of a job that never ran allocates %v times, want 0", n)
	}
}

var sinkEfficiency EfficiencyView
