package slurmrest

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/url"
	"strconv"
	"testing"
	"time"

	"ooddash/internal/slurm"
)

// accountingByClone is the reference accounting body: records cloned by
// DBD.Jobs, then converted and, for another user's job on a user token,
// redacted.
func accountingByClone(t *testing.T, cl *slurm.Cluster, f slurm.JobFilter, user string) []byte {
	t.Helper()
	now := cl.Ctl.Now()
	jobs := cl.DBD.Jobs(f, now)
	resp := AccountingResponse{Jobs: make([]AccountingJob, 0, len(jobs))}
	for _, j := range jobs {
		wire := accountingFromJob(j, now)
		if user != "" && j.User != user {
			redactAccounting(&wire)
		}
		resp.Jobs = append(resp.Jobs, wire)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestAccountingMatchesClonePath is the randomized oracle for the
// accounting endpoint: over a random job stream (arrays, GPU and multi-node
// jobs, interactive apps, cancels) and random queries on every parameter,
// for user and staff tokens, the body is byte-identical to the one built
// from cloned records.
func TestAccountingMatchesClonePath(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		e := newRestEnv(t, Options{})
		e.seedJobs(t)
		r := rand.New(rand.NewSource(seed))
		users := []string{"alice", "bob"}
		var ids []slurm.JobID
		for step := 0; step < 80; step++ {
			switch r.Intn(4) {
			case 0, 1:
				req := slurm.SubmitRequest{
					Name: "job", User: users[r.Intn(2)], Account: "lab-a", Partition: "cpu", QOS: "normal",
					ReqTRES:   slurm.TRES{CPUs: 1 + r.Intn(8), MemMB: 1024, Nodes: 1 + r.Intn(2)},
					TimeLimit: time.Duration(1+r.Intn(4)) * time.Hour,
					WorkDir:   "/home/w",
					Profile: slurm.UsageProfile{
						ActualDuration: time.Duration(5+r.Intn(200)) * time.Minute,
						CPUUtilization: r.Float64(), MemUtilization: r.Float64(), GPUUtilization: r.Float64(),
					},
				}
				switch r.Intn(4) {
				case 0:
					req.Partition, req.ReqTRES.GPUs, req.ReqTRES.Nodes = "gpu", 1+r.Intn(2), 1
				case 1:
					req.InteractiveApp, req.SessionID = "jupyter", "s-"+strconv.Itoa(step)
				case 2:
					req.ArraySize = 2 + r.Intn(4)
				}
				id, err := e.cluster.Ctl.Submit(req)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			case 2:
				e.clock.Advance(time.Duration(1+r.Intn(90)) * time.Minute)
				e.cluster.Ctl.Tick()
			default:
				if len(ids) > 0 {
					_ = e.cluster.Ctl.Cancel(ids[r.Intn(len(ids))], "root")
				}
			}
		}
		jobs := e.cluster.DBD.Jobs(slurm.JobFilter{}, e.cluster.Ctl.Now())
		pick := func() *slurm.Job { return jobs[r.Intn(len(jobs))] }
		rows := 0
		for i := 0; i < 200; i++ {
			q := url.Values{}
			var f slurm.JobFilter
			if r.Intn(3) == 0 {
				f.Users = []string{pick().User}
				q.Set("user", f.Users[0])
			}
			if r.Intn(5) == 0 {
				f.Accounts = []string{"lab-a"}
				q.Add("account", "lab-a")
			}
			if r.Intn(4) == 0 {
				st := pick().State
				f.States = []slurm.JobState{st}
				q.Add("state", string(st))
			}
			if r.Intn(5) == 0 {
				f.Partition = pick().Partition
				q.Set("partition", f.Partition)
			}
			if r.Intn(3) == 0 {
				f.Start = pick().SubmitTime.Truncate(time.Second)
				q.Set("start_time", strconv.FormatInt(f.Start.Unix(), 10))
			}
			if r.Intn(3) == 0 {
				f.End = pick().SubmitTime.Add(time.Hour).Truncate(time.Second)
				q.Set("end_time", strconv.FormatInt(f.End.Unix(), 10))
			}
			for n := r.Intn(3); n > 0; n-- {
				j := pick()
				id := j.ID
				if j.ArrayJobID != 0 && r.Intn(2) == 0 {
					id = j.ArrayJobID
				}
				f.JobIDs = append(f.JobIDs, id)
				q.Add("job_id", strconv.FormatInt(int64(id), 10))
			}
			if r.Intn(6) == 0 {
				id := pick().ArrayJobID
				f.JobIDs = append(f.JobIDs, id)
				q.Set("array_job", strconv.FormatInt(int64(id), 10))
			}
			if r.Intn(4) == 0 {
				f.Limit = 1 + r.Intn(10)
				q.Set("limit", strconv.Itoa(f.Limit))
			}
			tok, user := tokStaff, ""
			switch r.Intn(3) {
			case 0:
				tok, user = tokAlice, "alice"
			case 1:
				tok, user = tokBob, "bob"
			}
			rec := e.get(tok, "/slurm/v1/accounting?"+q.Encode())
			if rec.Code != 200 {
				t.Fatalf("seed %d %s: status %d: %s", seed, q.Encode(), rec.Code, rec.Body)
			}
			want := accountingByClone(t, e.cluster, f, user)
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("seed %d %s as %q:\n got %s\nwant %s", seed, q.Encode(), user, got, want)
			}
			rows += bytes.Count(want, []byte(`"job_id"`))
		}
		if rows < 200 {
			t.Fatalf("seed %d: only %d rows across 200 queries", seed, rows)
		}
	}
}
