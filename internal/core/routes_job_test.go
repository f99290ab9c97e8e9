package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ooddash/internal/slurm"
)

func TestJobOverviewRunning(t *testing.T) {
	e := newEnv(t)
	id := e.submit(slurm.SubmitRequest{
		Name: "overview-me", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 8192}, TimeLimit: 2 * time.Hour,
		WorkDir:    "/home/alice/run",
		StdoutPath: "/home/alice/run/out.log",
		StderrPath: "/home/alice/run/err.log",
		Profile:    slurm.UsageProfile{ActualDuration: 90 * time.Minute, CPUUtilization: 0.75},
	})
	e.advance(30 * time.Minute)

	var resp JobOverviewResponse
	e.getJSON("alice", "/api/job/"+jobIDStr(id), &resp)
	if resp.Name != "overview-me" || resp.State != "RUNNING" || resp.Color != "blue" {
		t.Fatalf("header = %+v", resp)
	}
	if resp.CPUs != 4 || resp.MemMB != 8192 || resp.NumNodes != 1 {
		t.Fatalf("resources = %+v", resp)
	}
	if len(resp.Nodes) != 1 || !strings.HasPrefix(resp.NodeURLs[0], "/node/c") {
		t.Fatalf("node links = %v %v", resp.Nodes, resp.NodeURLs)
	}
	if resp.WallSeconds != 1800 || resp.TimeLimitSeconds != 7200 || resp.RemainingSeconds != 5400 {
		t.Fatalf("time card = wall %d limit %d remaining %d",
			resp.WallSeconds, resp.TimeLimitSeconds, resp.RemainingSeconds)
	}
	// Timeline: submitted/eligible/started done; ended pending.
	if len(resp.Timeline) != 4 {
		t.Fatalf("timeline = %+v", resp.Timeline)
	}
	for i, want := range []bool{true, true, true, false} {
		if resp.Timeline[i].Done != want {
			t.Fatalf("timeline[%d].Done = %v, want %v", i, resp.Timeline[i].Done, want)
		}
	}
	if !resp.HasLogs || resp.StdoutURL == "" || resp.StderrURL == "" {
		t.Fatalf("log links = %+v", resp)
	}
	// Efficiency card present for a running job.
	if resp.Efficiency.CPUPercent == nil || *resp.Efficiency.CPUPercent != 75 {
		t.Fatalf("cpu eff = %v", resp.Efficiency.CPUPercent)
	}
}

func TestJobOverviewPendingReason(t *testing.T) {
	e := newEnv(t)
	var last slurm.JobID
	for i := 0; i < 4; i++ {
		last = e.submit(slurm.SubmitRequest{
			User: "alice", Account: "lab-a", Partition: "cpu",
			ReqTRES: slurm.TRES{CPUs: 8, MemMB: 1024},
			Profile: slurm.UsageProfile{ActualDuration: time.Hour},
		})
	}
	var resp JobOverviewResponse
	e.getJSON("alice", "/api/job/"+jobIDStr(last), &resp)
	if resp.State != "PENDING" || resp.Color != "yellow" {
		t.Fatalf("pending header = %+v", resp)
	}
	if resp.Reason != "AssocGrpCpuLimit" || !strings.Contains(resp.ReasonHelp, "aggregate group CPU limit") {
		t.Fatalf("reason = %q help = %q", resp.Reason, resp.ReasonHelp)
	}
}

func TestJobOverviewGroupVisibilityAndLogPrivacy(t *testing.T) {
	e := newEnv(t)
	id := e.submit(slurm.SubmitRequest{
		Name: "alices", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES:    slurm.TRES{CPUs: 1, MemMB: 512},
		StdoutPath: "/home/alice/out.log",
		Profile:    slurm.UsageProfile{ActualDuration: time.Hour},
	})
	// bob (same group) can view the job but gets no log URLs.
	var resp JobOverviewResponse
	e.getJSON("bob", "/api/job/"+jobIDStr(id), &resp)
	if resp.HasLogs || resp.StdoutURL != "" {
		t.Fatalf("group member got log access: %+v", resp)
	}
	// carol (different group) cannot view at all.
	e.wantStatus("carol", "/api/job/"+jobIDStr(id), 403)
}

func TestJobOverviewSessionTab(t *testing.T) {
	e := newEnv(t)
	id := e.submit(slurm.SubmitRequest{
		Name: "sys/dashboard/rstudio", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES:        slurm.TRES{CPUs: 2, MemMB: 4096},
		WorkDir:        "/home/alice/ondemand/data/sys/dashboard/batch_connect",
		InteractiveApp: "rstudio", SessionID: "f00dcafe",
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	var resp JobOverviewResponse
	e.getJSON("alice", "/api/job/"+jobIDStr(id), &resp)
	if resp.App != "rstudio" || resp.SessionID != "f00dcafe" {
		t.Fatalf("session tab = %+v", resp)
	}
	if !strings.Contains(resp.RelaunchURL, "rstudio") {
		t.Fatalf("relaunch URL = %q", resp.RelaunchURL)
	}
	if !strings.Contains(resp.SessionDirURL, resp.App) == false && resp.SessionDirURL == "" {
		t.Fatalf("session dir URL = %q", resp.SessionDirURL)
	}
}

func TestJobOverviewUnknownJob(t *testing.T) {
	e := newEnv(t)
	e.wantStatus("alice", "/api/job/999999", 404)
	e.wantStatus("alice", "/api/job/banana", 400)
}

func TestJobLogsTailAndNumbering(t *testing.T) {
	e := newEnv(t)
	id := e.submit(slurm.SubmitRequest{
		Name: "loggy", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES:    slurm.TRES{CPUs: 1, MemMB: 512},
		StdoutPath: "/home/alice/loggy.out",
		StderrPath: "/home/alice/loggy.err",
		Profile:    slurm.UsageProfile{ActualDuration: time.Hour},
	})
	var content strings.Builder
	for i := 1; i <= 2500; i++ {
		fmt.Fprintf(&content, "step %d\n", i)
	}
	e.logs.Write("/home/alice/loggy.out", content.String())
	e.logs.Write("/home/alice/loggy.err", "warning: something\n")

	var resp JobLogsResponse
	e.getJSON("alice", "/api/job/"+jobIDStr(id)+"/logs?stream=out", &resp)
	if resp.TotalLines != 2500 || len(resp.Lines) != 1000 || !resp.Truncated {
		t.Fatalf("log view = total %d shown %d truncated %v",
			resp.TotalLines, len(resp.Lines), resp.Truncated)
	}
	if resp.Lines[0].Number != 1501 || resp.Lines[0].Text != "step 1501" {
		t.Fatalf("first shown line = %+v", resp.Lines[0])
	}
	if last := resp.Lines[999]; last.Number != 2500 || last.Text != "step 2500" {
		t.Fatalf("last line = %+v", last)
	}
	if !strings.Contains(resp.FullFileURL, "/home/alice/loggy.out") {
		t.Fatalf("full file URL = %q", resp.FullFileURL)
	}

	e.getJSON("alice", "/api/job/"+jobIDStr(id)+"/logs?stream=err", &resp)
	if resp.TotalLines != 1 || resp.Truncated {
		t.Fatalf("err view = %+v", resp)
	}
}

func TestJobLogsOwnerOnly(t *testing.T) {
	e := newEnv(t)
	id := e.submit(slurm.SubmitRequest{
		Name: "private", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES:    slurm.TRES{CPUs: 1, MemMB: 512},
		StdoutPath: "/home/alice/private.out",
		Profile:    slurm.UsageProfile{ActualDuration: time.Hour},
	})
	e.logs.Write("/home/alice/private.out", "secret results\n")
	// Same-group member bob is still denied (filesystem permissions).
	e.wantStatus("bob", "/api/job/"+jobIDStr(id)+"/logs", 403)
	e.wantStatus("carol", "/api/job/"+jobIDStr(id)+"/logs", 403)
	e.wantStatus("alice", "/api/job/"+jobIDStr(id)+"/logs?stream=bogus", 400)
}

func TestJobLogsMissingFile(t *testing.T) {
	e := newEnv(t)
	id := e.submit(slurm.SubmitRequest{
		Name: "nolog", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES:    slurm.TRES{CPUs: 1, MemMB: 512},
		StdoutPath: "/home/alice/never-written.out",
		Profile:    slurm.UsageProfile{ActualDuration: time.Hour},
	})
	e.wantStatus("alice", "/api/job/"+jobIDStr(id)+"/logs", 404)
}

func TestJobArrayTab(t *testing.T) {
	e := newEnv(t)
	first, err := e.cluster.Ctl.Submit(slurm.SubmitRequest{
		Name: "sweep", User: "alice", Account: "lab-a", Partition: "cpu", QOS: "normal",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512}, TimeLimit: time.Hour, ArraySize: 6,
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute,
			CPUUtilization: 0.5, MemUtilization: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.cluster.Ctl.Tick()
	e.advance(15 * time.Minute)

	var resp JobArrayResponse
	e.getJSON("alice", fmt.Sprintf("/api/job/%d/array", first), &resp)
	if len(resp.Tasks) != 6 {
		t.Fatalf("tasks = %d", len(resp.Tasks))
	}
	if resp.StateCounts["COMPLETED"] != 6 {
		t.Fatalf("state counts = %+v", resp.StateCounts)
	}
	for i, task := range resp.Tasks {
		if task.TaskID != i {
			t.Fatalf("task %d has TaskID %d", i, task.TaskID)
		}
		if !strings.Contains(task.JobID, "_") {
			t.Fatalf("task job id = %q", task.JobID)
		}
	}
	// Overview of an array task links back to the array.
	var ov JobOverviewResponse
	e.getJSON("alice", "/api/job/"+resp.Tasks[2].JobID, &ov)
	if !ov.IsArrayTask || ov.ArrayURL == "" {
		t.Fatalf("array task overview = %+v", ov)
	}
	// Privacy: carol cannot see the array.
	e.wantStatus("carol", fmt.Sprintf("/api/job/%d/array", first), 403)
	// Neither one task's raw ID nor a plain job is an array.
	e.wantStatus("alice", fmt.Sprintf("/api/job/%d/array", first+2), 404)
	plain := e.submit(slurm.SubmitRequest{
		Name: "plain", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Minute},
	})
	e.wantStatus("alice", "/api/job/"+jobIDStr(plain)+"/array", 404)
}

func TestJobOverviewCompletedColor(t *testing.T) {
	e := newEnv(t)
	id := e.submit(slurm.SubmitRequest{
		Name: "done", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Minute, CPUUtilization: 0.5, MemUtilization: 0.5},
	})
	e.advance(2 * time.Minute)
	var resp JobOverviewResponse
	e.getJSON("alice", "/api/job/"+jobIDStr(id), &resp)
	if resp.State != "COMPLETED" || resp.Color != "green" {
		t.Fatalf("completed = %+v", resp)
	}
	if !resp.Timeline[3].Done {
		t.Fatal("ended milestone not done")
	}
}

func TestHTMLPagesRender(t *testing.T) {
	e := newEnv(t)
	id := e.submit(slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	pages := []string{"/", "/myjobs", "/jobperf", "/clusterstatus",
		"/node/c001", "/job/" + jobIDStr(id), "/news"}
	for _, p := range pages {
		status, body := e.get("alice", p)
		if status != 200 {
			t.Fatalf("GET %s: %d", p, status)
		}
		html := string(body)
		if !strings.Contains(html, "<!DOCTYPE html>") || !strings.Contains(html, "data-api") {
			t.Fatalf("page %s malformed:\n%.200s", p, html)
		}
	}
	// Unauthenticated page loads are rejected.
	status, _ := e.get("", "/")
	if status != 401 {
		t.Fatalf("unauthenticated home = %d", status)
	}
	// Static assets are served.
	for _, p := range []string{"/assets/dashboard.css", "/assets/cache.js", "/assets/widgets.js"} {
		if status, _ := e.get("", p); status != 200 {
			t.Fatalf("asset %s = %d", p, status)
		}
	}
}

func TestHomepageListsAllFiveWidgets(t *testing.T) {
	e := newEnv(t)
	_, body := e.get("alice", "/")
	html := string(body)
	for _, api := range []string{
		"/api/announcements", "/api/recent_jobs", "/api/system_status",
		"/api/accounts", "/api/storage",
	} {
		if !strings.Contains(html, api) {
			t.Fatalf("homepage missing widget %s", api)
		}
	}
}
