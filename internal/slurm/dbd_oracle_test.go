package slurm

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"ooddash/internal/clock"
)

// oracleCluster returns a cluster fed a random job stream: plain, GPU,
// multi-node and array submissions, holds, cancels, suspensions, standby
// jobs requeued by preemption, and Backfill batches whose submit times tie
// with live jobs at lower IDs. Jobs finish, time out and fail as the clock
// moves.
func oracleCluster(t *testing.T, seed int64) (*Cluster, *clock.Sim) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	clk := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	cfg := ClusterConfig{
		Name: "oracle",
		Nodes: []NodeSpec{
			{NamePrefix: "c", Count: 4, CPUs: 8, MemMB: 16 * 1024, Partitions: []string{"cpu"}},
			{NamePrefix: "g", Count: 2, CPUs: 16, MemMB: 64 * 1024, GPUs: 2, GPUType: "a100", Partitions: []string{"gpu"}},
			{NamePrefix: "s", Count: 1, CPUs: 8, MemMB: 16 * 1024, Partitions: []string{"standby", "urgent"}},
		},
		Partitions: []PartitionSpec{
			{Name: "cpu", MaxTime: 24 * time.Hour, Default: true, Priority: 100},
			{Name: "gpu", MaxTime: 12 * time.Hour, Priority: 100},
			{Name: "standby", MaxTime: 4 * time.Hour},
			{Name: "urgent", MaxTime: time.Hour, Priority: 100},
		},
		QOS: []QOS{
			{Name: "normal"},
			{Name: "standby", Priority: -500, Preemptable: true},
		},
		Associations: []Association{
			{Account: "lab-a"}, {Account: "lab-a", User: "alice"}, {Account: "lab-a", User: "bob"},
			{Account: "lab-b"}, {Account: "lab-b", User: "carol"}, {Account: "lab-b", User: "bob"},
		},
	}
	cl, err := NewCluster(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	users := []string{"alice", "bob", "carol"}
	accounts := map[string][]string{"alice": {"lab-a"}, "bob": {"lab-a", "lab-b"}, "carol": {"lab-b"}}
	failures := []JobState{"", "", StateFailed, StateTimeout}
	var live []JobID
	backfillID := JobID(1) // below the controller's first ID, so never shared
	for step := 0; step < 150; step++ {
		switch op := r.Intn(10); {
		case op < 5:
			user := users[r.Intn(len(users))]
			req := SubmitRequest{
				Name: "job", User: user, Account: accounts[user][r.Intn(len(accounts[user]))],
				Partition: "cpu", QOS: "normal",
				ReqTRES:   TRES{CPUs: 1 + r.Intn(8), MemMB: int64(1+r.Intn(8)) * 1024, Nodes: 1},
				TimeLimit: time.Duration(1+r.Intn(4)) * time.Hour,
				Profile: UsageProfile{
					ActualDuration: time.Duration(10+r.Intn(300)) * time.Minute,
					CPUUtilization: r.Float64(), MemUtilization: r.Float64(), GPUUtilization: r.Float64(),
					FailureState: failures[r.Intn(len(failures))], ExitCode: r.Intn(2),
				},
			}
			switch r.Intn(5) {
			case 0:
				req.Partition, req.ReqTRES.GPUs = "gpu", 1+r.Intn(2)
			case 1:
				req.Partition, req.QOS = "standby", "standby"
			case 2:
				req.ReqTRES.Nodes, req.ReqTRES.CPUs = 2, 16
			}
			if r.Intn(4) == 0 {
				req.ArraySize = 2 + r.Intn(4)
			}
			req.Hold = r.Intn(10) == 0
			id, err := cl.Ctl.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		case op < 7:
			clk.Advance(time.Duration(1+r.Intn(90)) * time.Minute)
			cl.Ctl.Tick()
		case op == 7 && len(live) > 0:
			id := live[r.Intn(len(live))]
			if r.Intn(2) == 0 {
				_ = cl.Ctl.Cancel(id, "")
			} else {
				_ = cl.Ctl.Suspend(id, "")
			}
		case op == 8:
			// History that ties a live job's submit time at a lower ID.
			now := clk.Now()
			var batch []*Job
			for i := r.Intn(4); i >= 0; i-- {
				submit := now.Add(-time.Duration(r.Intn(600)) * time.Minute)
				if i == 0 && len(live) > 0 {
					if j := cl.DBD.Job(live[r.Intn(len(live))]); j != nil {
						submit = j.SubmitTime
					}
				}
				user := users[r.Intn(len(users))]
				j := &Job{
					ID: backfillID, Name: "hist", User: user, Account: accounts[user][0],
					Partition: "cpu", QOS: "normal", State: StateCompleted,
					SubmitTime: submit, StartTime: submit.Add(time.Minute), EndTime: submit.Add(time.Hour),
					ReqTRES: TRES{CPUs: 2, MemMB: 1024, Nodes: 1}, AllocTRES: TRES{CPUs: 2, MemMB: 1024, Nodes: 1},
				}
				if r.Intn(3) == 0 {
					// Imported array tasks need not have contiguous IDs.
					j.ArrayJobID, j.ArrayTaskID = JobID(1+r.Intn(int(backfillID))), r.Intn(4)
				}
				batch = append(batch, j)
				backfillID++
			}
			cl.DBD.Backfill(batch)
		default:
			// Standby work on the shared node, then a normal job there that
			// preempts and requeues it.
			for _, req := range []SubmitRequest{
				{Name: "fill", User: "bob", Account: "lab-b", Partition: "standby", QOS: "standby"},
				{Name: "urgent", User: "alice", Account: "lab-a", Partition: "urgent", QOS: "normal"},
			} {
				req.ReqTRES = TRES{CPUs: 8, MemMB: 1024, Nodes: 1}
				req.TimeLimit = time.Hour
				req.Profile = UsageProfile{ActualDuration: 20 * time.Minute, CPUUtilization: 1, MemUtilization: 0.5}
				id, err := cl.Ctl.Submit(req)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
				cl.Ctl.Tick()
			}
		}
	}
	// The stream must have reached the cases it exists for.
	requeued, arrays := 0, 0
	for _, e := range cl.Ctl.EventsSince(0, 0) {
		if e.Kind == EventPreempted {
			requeued++
		}
	}
	for _, j := range cl.DBD.Jobs(JobFilter{}, clk.Now()) {
		if j.ArrayJobID != 0 {
			arrays++
		}
	}
	if requeued == 0 || arrays == 0 || backfillID == 1 {
		t.Fatalf("seed %d: stream has %d requeues, %d array tasks, %d backfilled", seed, requeued, arrays, backfillID-1)
	}
	return cl, clk
}

// linearJobs is the reference: a scan of every record in d.order.
func linearJobs(d *DBD, f JobFilter, now time.Time) []*Job {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []*Job
	if f.Limit > 0 {
		for i := len(d.order) - 1; i >= 0 && len(out) < f.Limit; i-- {
			if j := d.jobs[d.order[i]]; f.matches(j, now) {
				out = append(out, j.Clone())
			}
		}
		return out
	}
	for _, id := range d.order {
		if j := d.jobs[id]; f.matches(j, now) {
			out = append(out, j.Clone())
		}
	}
	return out
}

// randomFilter draws a filter over the stored records: unknown, duplicate
// and unordered job IDs, array IDs, array tasks (known, past the last task,
// of unknown arrays, of plain jobs, of array 0), users, accounts, states,
// partitions, limits, and start/end bounds on or one second off a record's
// times.
func randomFilter(r *rand.Rand, records []*Job) JobFilter {
	var f JobFilter
	pick := func() *Job { return records[r.Intn(len(records))] }
	if r.Intn(2) == 0 {
		for n := 1 + r.Intn(5); n > 0; n-- {
			switch r.Intn(5) {
			case 0:
				f.JobIDs = append(f.JobIDs, JobID(900000+r.Intn(10))) // unknown
			case 1:
				if len(f.JobIDs) > 0 {
					f.JobIDs = append(f.JobIDs, f.JobIDs[r.Intn(len(f.JobIDs))]) // duplicate
					continue
				}
				fallthrough
			default:
				f.JobIDs = append(f.JobIDs, pick().ID)
			}
		}
	}
	if r.Intn(3) == 0 {
		for n := 1 + r.Intn(4); n > 0; n-- {
			j := pick()
			switch r.Intn(6) {
			case 0:
				f.JobIDs = append(f.JobIDs, j.ArrayJobID) // zero for a plain job
			case 1:
				f.Tasks = append(f.Tasks, ArrayTask{ArrayJobID: j.ArrayJobID, TaskID: j.ArrayTaskID + 100})
			case 2:
				f.Tasks = append(f.Tasks, ArrayTask{ArrayJobID: JobID(900000 + r.Intn(10))})
			case 3:
				f.Tasks = append(f.Tasks, ArrayTask{ArrayJobID: j.ID, TaskID: r.Intn(2)})
			default:
				f.Tasks = append(f.Tasks, ArrayTask{ArrayJobID: j.ArrayJobID, TaskID: j.ArrayTaskID})
			}
		}
	}
	if r.Intn(3) == 0 {
		f.Users = []string{pick().User}
		if r.Intn(3) == 0 {
			f.Users = append(f.Users, "nobody")
		}
	}
	if r.Intn(4) == 0 {
		f.Accounts = []string{pick().Account}
	}
	if r.Intn(4) == 0 {
		f.States = []JobState{pick().State}
		if r.Intn(2) == 0 {
			f.States = append(f.States, StateRunning)
		}
	}
	if r.Intn(5) == 0 {
		f.Partition = pick().Partition
	}
	edge := func() time.Time {
		j := pick()
		t := j.SubmitTime
		if r.Intn(2) == 0 && !j.EndTime.IsZero() {
			t = j.EndTime
		}
		return t.Add(time.Duration(r.Intn(3)-1) * time.Second)
	}
	if r.Intn(3) == 0 {
		f.Start = edge()
	}
	if r.Intn(3) == 0 {
		f.End = edge()
	}
	if r.Intn(3) == 0 {
		f.Limit = 1 + r.Intn(6)
	}
	return f
}

func jobIDs(jobs []*Job) []JobID {
	out := make([]JobID, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

// TestDBDJobsMatchLinearScan is the randomized oracle for the accounting
// query path: over random job streams and random filters, Jobs and EachJob
// return exactly the records, in exactly the order, of a scan of every
// record, and each call counts one sacct RPC. Job-ID and array-task filters
// go through the by-ID map and the array index.
func TestDBDJobsMatchLinearScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		cl, clk := oracleCluster(t, seed)
		d := cl.DBD
		now := clk.Now()
		records := linearJobs(d, JobFilter{}, now)
		if len(records) < 100 {
			t.Fatalf("seed %d: only %d records", seed, len(records))
		}
		if !slices.IsSortedFunc(records, jobCmp) {
			t.Fatalf("seed %d: stored order is not (SubmitTime, ID)", seed)
		}
		r := rand.New(rand.NewSource(seed))
		nonEmpty := 0
		for i := 0; i < 400; i++ {
			f := randomFilter(r, records)
			want := linearJobs(d, f, now)
			rpcs := d.Stats().Count(RPCSacct)
			got := d.Jobs(f, now)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d filter %+v:\n got %v\nwant %v", seed, f, jobIDs(got), jobIDs(want))
			}
			var each []JobID
			if err := d.EachJob(f, now, func(j *Job) error {
				each = append(each, j.ID)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(each, jobIDs(want)) {
				t.Fatalf("seed %d filter %+v: EachJob %v, want %v", seed, f, each, jobIDs(want))
			}
			if n := d.Stats().Count(RPCSacct) - rpcs; n != 2 {
				t.Fatalf("seed %d: Jobs+EachJob recorded %d sacct RPCs, want 2", seed, n)
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < 100 {
			t.Fatalf("seed %d: only %d of 400 filters matched anything", seed, nonEmpty)
		}
	}
}

// TestDBDEachJobStopsAtError checks that EachJob returns fn's first error
// and calls fn no further.
func TestDBDEachJobStopsAtError(t *testing.T) {
	cl, clk := oracleCluster(t, 1)
	stop := errors.New("stop")
	calls := 0
	err := cl.DBD.EachJob(JobFilter{}, clk.Now(), func(*Job) error {
		calls++
		if calls == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || calls != 3 {
		t.Fatalf("EachJob = %v after %d calls, want stop after 3", err, calls)
	}
}

// TestDBDRecordOrderTiesByID checks that a record submitted at the same
// instant as a stored one, but with a lower ID, is placed before it.
func TestDBDRecordOrderTiesByID(t *testing.T) {
	d := NewDBD()
	at := time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC)
	for _, id := range []JobID{20, 10, 30, 5} {
		d.recordJob(&Job{ID: id, State: StatePending, SubmitTime: at})
	}
	d.recordJob(&Job{ID: 1, State: StatePending, SubmitTime: at.Add(time.Second)})
	got := jobIDs(d.Jobs(JobFilter{}, at))
	if want := []JobID{5, 10, 20, 30, 1}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	got = jobIDs(d.Jobs(JobFilter{JobIDs: []JobID{1, 30, 5, 30, 7}}, at))
	if want := []JobID{5, 30, 1}; !slices.Equal(got, want) {
		t.Fatalf("by-ID order = %v, want %v", got, want)
	}
}
