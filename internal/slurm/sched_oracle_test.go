package slurm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ooddash/internal/clock"
)

// schedOracleConfig is a small cluster with every placement feature the
// scheduler has: three feature sets, nodes shared by two partitions, GPUs,
// an account CPU limit, a per-user QOS limit, a preemptable QOS and a
// non-preemptable QOS ranked below it.
func schedOracleConfig() ClusterConfig {
	return ClusterConfig{
		Name: "sched-oracle",
		Nodes: []NodeSpec{
			{NamePrefix: "c", Count: 6, CPUs: 16, MemMB: 32 * 1024, Features: []string{"milan", "avx2"}, Partitions: []string{"cpu", "debug"}},
			{NamePrefix: "b", Count: 2, CPUs: 16, MemMB: 128 * 1024, Features: []string{"milan", "bigmem"}, Partitions: []string{"cpu", "highmem"}},
			{NamePrefix: "g", Count: 2, CPUs: 16, MemMB: 64 * 1024, GPUs: 2, GPUType: "a100", Features: []string{"a100"}, Partitions: []string{"gpu"}},
			{NamePrefix: "s", Count: 1, CPUs: 8, MemMB: 16 * 1024, Partitions: []string{"shared"}},
		},
		Partitions: []PartitionSpec{
			{Name: "cpu", MaxTime: 24 * time.Hour, Default: true, Priority: 100},
			{Name: "debug", MaxTime: time.Hour, Priority: 500},
			{Name: "highmem", MaxTime: 12 * time.Hour, Priority: 100},
			{Name: "gpu", MaxTime: 12 * time.Hour, Priority: 100},
			{Name: "shared", MaxTime: 4 * time.Hour},
		},
		QOS: []QOS{
			{Name: "normal"},
			{Name: "debug", Priority: 1000, MaxJobsPerUser: 1},
			{Name: "standby", Preemptable: true},
			{Name: "low", Priority: -300},
		},
		Associations: []Association{
			{Account: "lab-a", GrpCPULimit: 48}, {Account: "lab-a", User: "alice"}, {Account: "lab-a", User: "bob"},
			{Account: "lab-b"}, {Account: "lab-b", User: "bob"}, {Account: "lab-b", User: "carol"},
		},
	}
}

var (
	oracleUsers    = []string{"alice", "bob", "carol"}
	oracleAccounts = map[string][]string{"alice": {"lab-a"}, "bob": {"lab-a", "lab-b"}, "carol": {"lab-b"}}
	oracleNodes    = []string{"b001", "b002", "c001", "c002", "c003", "c004", "c005", "c006", "g001", "g002", "s001"}
)

// oracleRequest draws one submission: single- and multi-node, feature
// constraints (some unsatisfiable), begin times, dependencies, holds and
// arrays, in every partition and QOS.
func oracleRequest(r *rand.Rand, now time.Time, ids []JobID) SubmitRequest {
	user := oracleUsers[r.Intn(len(oracleUsers))]
	accts := oracleAccounts[user]
	req := SubmitRequest{
		Name: "job", User: user, Account: accts[r.Intn(len(accts))], Partition: "cpu", QOS: "normal",
		ReqTRES:   TRES{CPUs: 1 + r.Intn(16), MemMB: int64(1+r.Intn(24)) * 1024, Nodes: 1},
		TimeLimit: time.Duration(1+r.Intn(12)) * time.Hour,
		Profile: UsageProfile{
			ActualDuration: time.Duration(5+r.Intn(400)) * time.Minute,
			CPUUtilization: r.Float64(), MemUtilization: r.Float64() * 1.1,
		},
	}
	switch r.Intn(8) {
	case 0:
		req.Partition, req.QOS, req.TimeLimit = "debug", "debug", time.Duration(10+r.Intn(50))*time.Minute
	case 1:
		req.Partition, req.ReqTRES.MemMB = "highmem", int64(32+r.Intn(96))*1024
	case 2:
		req.Partition, req.ReqTRES.GPUs, req.Constraint = "gpu", 1+r.Intn(2), "a100"
	case 3:
		req.Partition, req.ReqTRES.CPUs, req.ReqTRES.MemMB = "shared", 1+r.Intn(8), 1024
		req.TimeLimit = time.Duration(1+r.Intn(4)) * time.Hour
	}
	switch r.Intn(6) {
	case 0:
		req.QOS = "standby"
	case 1:
		req.QOS = "low"
	}
	if req.Partition == "cpu" {
		switch r.Intn(6) {
		case 0:
			req.ReqTRES.Nodes, req.ReqTRES.CPUs = 2+r.Intn(2), 8+r.Intn(40)
		case 1:
			req.Constraint = "bigmem"
		case 2:
			req.Constraint = "milan,avx2"
		case 3:
			req.Constraint = "a100" // no cpu node has it: rejected
		}
	}
	switch r.Intn(10) {
	case 0:
		req.BeginTime = now.Add(time.Duration(r.Intn(120)) * time.Minute)
	case 1:
		if len(ids) > 0 {
			req.Dependency = ids[r.Intn(len(ids))]
		}
	case 2:
		req.Dependency = 999999 // never existed
	case 3:
		req.Hold = true
	case 4:
		req.ArraySize = 2 + r.Intn(4)
	}
	return req
}

// TestSchedulerMatchesReference is the randomized oracle for the scheduling
// pass: a cluster ticked by Tick and one ticked by refTick (the pass before
// its table, sched_ref_test.go) go through the same random stream, and after
// every Tick their jobs, nodes, event feeds, accounting and power counters
// are identical. The stream has multi-node and constrained jobs; partial and
// whole-cluster maintenance windows in the past, active and upcoming; drains,
// downs, holds and dependencies; GrpCPULimit and MaxJobsPerUser; powered-down
// nodes that auto-wake; and a preemptable QOS whose jobs are requeued, some in
// the same pass that started them. Build(SmallSpec())'s pinned state digest
// (internal/workload) compares a full replay the same way.
func TestSchedulerMatchesReference(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		clk := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
		cur, err := NewCluster(schedOracleConfig(), clk)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewCluster(schedOracleConfig(), clk)
		if err != nil {
			t.Fatal(err)
		}
		var ids []JobID
		// both applies one operation to both clusters; they must agree on
		// its outcome too.
		both := func(what string, op func(*Cluster) error) {
			t.Helper()
			errCur, errRef := op(cur), op(ref)
			if fmt.Sprint(errCur) != fmt.Sprint(errRef) {
				t.Fatalf("seed %d %s: error %v, reference %v", seed, what, errCur, errRef)
			}
		}
		for step := 0; step < 400; step++ {
			now := clk.Now()
			node := oracleNodes[r.Intn(len(oracleNodes))]
			switch op := r.Intn(20); {
			case op < 7:
				req := oracleRequest(r, now, ids)
				var id JobID
				both("submit", func(cl *Cluster) (err error) {
					id, err = cl.Ctl.Submit(req)
					return err
				})
				if id != 0 {
					ids = append(ids, id)
				}
			case op == 7:
				// A standby job and two lower-ranked jobs for the one shared
				// node, submitted together: the standby job starts first in
				// the pass, the first low job requeues it later in the same
				// pass, and the second fits in the room the requeue left.
				for i, qos := range []string{"standby", "low", "low"} {
					req := SubmitRequest{
						Name: qos, User: "carol", Account: "lab-b", Partition: "shared", QOS: qos,
						ReqTRES: TRES{CPUs: 8, MemMB: 1024, Nodes: 1}, TimeLimit: time.Hour,
						Profile: UsageProfile{ActualDuration: 30 * time.Minute, CPUUtilization: 1},
					}
					if i > 0 {
						req.ReqTRES.CPUs = 1 + r.Intn(4)
					}
					both("submit trio", func(cl *Cluster) error { _, err := cl.Ctl.Submit(req); return err })
				}
			case op == 8:
				// Maintenance that ended, is active, or is ahead; on the
				// whole cluster or a slice of it.
				start := now.Add(time.Duration(r.Intn(16*60)-6*60) * time.Minute)
				end := start.Add(time.Duration(30+r.Intn(6*60)) * time.Minute)
				var nodes []string
				if r.Intn(3) != 0 {
					for _, n := range oracleNodes {
						if r.Intn(3) == 0 {
							nodes = append(nodes, n)
						}
					}
				}
				both("maintenance", func(cl *Cluster) error {
					_, err := cl.Ctl.ScheduleMaintenance("pm", start, end, nodes, "pm")
					return err
				})
			case op == 9:
				wins := cur.Ctl.MaintenanceWindows()
				if len(wins) > 0 {
					id := wins[r.Intn(len(wins))].ID
					both("cancel maintenance", func(cl *Cluster) error { return cl.Ctl.CancelMaintenance(id) })
				}
			case op == 10:
				both("drain", func(cl *Cluster) error { return cl.Ctl.DrainNode(node, "oracle") })
			case op == 11:
				both("resume node", func(cl *Cluster) error { return cl.Ctl.ResumeNode(node) })
			case op == 12 && r.Intn(3) == 0:
				both("down", func(cl *Cluster) error { return cl.Ctl.SetNodeDown(node, "oracle") })
			case op == 13:
				keep := r.Intn(4)
				both("power down idle", func(cl *Cluster) error {
					cl.Ctl.PowerDownIdle(keep)
					return nil
				})
			case op == 14 && len(ids) > 0:
				id := ids[r.Intn(len(ids))]
				switch r.Intn(5) {
				case 0:
					both("hold", func(cl *Cluster) error { return cl.Ctl.Hold(id, "root") })
				case 1:
					both("release", func(cl *Cluster) error { return cl.Ctl.Release(id, "root") })
				case 2:
					both("cancel", func(cl *Cluster) error { return cl.Ctl.Cancel(id, "root") })
				case 3:
					both("suspend", func(cl *Cluster) error { return cl.Ctl.Suspend(id, "root") })
				default:
					both("resume", func(cl *Cluster) error { return cl.Ctl.Resume(id, "root") })
				}
			case op == 15:
				both("reboot", func(cl *Cluster) error { return cl.Ctl.RebootNode(node, "oracle") })
			default:
				clk.Advance(time.Duration(1+r.Intn(60)) * time.Minute)
				cur.Ctl.Tick()
				ref.Ctl.refTick()
				compareClusters(t, fmt.Sprintf("seed %d step %d", seed, step), cur, ref)
				checkPassHoldsNoJobs(t, cur.Ctl)
				tallyStream(cur, seen)
			}
		}
		clk.Advance(time.Minute)
		cur.Ctl.Tick()
		ref.Ctl.refTick()
		compareClusters(t, fmt.Sprintf("seed %d end", seed), cur, ref)
		startedAt := map[JobID]time.Time{}
		for _, e := range cur.Ctl.EventsSince(0, 0) {
			switch e.Kind {
			case EventStarted:
				startedAt[e.JobID] = e.Time
			case EventPreempted:
				if startedAt[e.JobID].Equal(e.Time) {
					seen["same-pass preemption"]++
				}
				fallthrough
			case EventNodeFail:
				seen[string(e.Kind)]++
			}
		}
		for _, j := range cur.DBD.Jobs(JobFilter{}, clk.Now()) {
			if len(j.Nodes) > 1 {
				seen["multi-node start"]++
			}
		}
		if p := cur.Ctl.Power(); p.AutoWakes > 0 {
			seen["auto-wake"]++
		}
	}
	t.Logf("stream reached: %v", seen)
	// The stream must have reached every case it exists for.
	for _, k := range []string{
		string(ReasonReqNodeNotAvail), string(ReasonAssocGrpCpuLimit), string(ReasonQOSMaxJobsPerUser),
		string(ReasonDependency), string(ReasonBeginTime), string(ReasonResources), string(ReasonPriority),
		string(EventPreempted), string(EventNodeFail), "same-pass preemption", "multi-node start", "auto-wake",
	} {
		if seen[k] == 0 {
			t.Errorf("the stream never reached %q (seen: %v)", k, seen)
		}
	}
}

// checkPassHoldsNoJobs fails the test if the pass table's storage still
// points at a job after Tick: a purged job must not be kept alive by it.
func checkPassHoldsNoJobs(t *testing.T, c *Controller) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range [][]*Job{c.pass.pending, c.pass.ending, c.pass.victims} {
		for _, j := range s[:cap(s)] {
			if j != nil {
				t.Fatalf("the pass table still holds job %d after Tick", j.ID)
			}
		}
	}
}

// tallyStream counts the pending reasons a Tick left.
func tallyStream(cl *Cluster, seen map[string]int) {
	for _, j := range cl.Ctl.Jobs(LiveJobFilter{}) {
		if j.State == StatePending {
			seen[string(j.Reason)]++
		}
	}
}

// compareClusters fails the test unless the two clusters hold identical
// live jobs, nodes, event feeds, accounting records and power counters.
func compareClusters(t *testing.T, at string, cur, ref *Cluster) {
	t.Helper()
	now := cur.Ctl.Now()
	for _, c := range []struct {
		what     string
		cur, ref any
	}{
		{"live jobs", cur.Ctl.Jobs(LiveJobFilter{}), ref.Ctl.Jobs(LiveJobFilter{})},
		{"nodes", cur.Ctl.Nodes(), ref.Ctl.Nodes()},
		{"events", cur.Ctl.EventsSince(0, 0), ref.Ctl.EventsSince(0, 0)},
		{"accounting", cur.DBD.Jobs(JobFilter{}, now), ref.DBD.Jobs(JobFilter{}, now)},
		{"associations", cur.DBD.Associations(), ref.DBD.Associations()},
		{"power", cur.Ctl.Power(), ref.Ctl.Power()},
		{"priorities", cur.Ctl.PendingPriorities(), ref.Ctl.PendingPriorities()},
	} {
		if !reflect.DeepEqual(c.cur, c.ref) {
			t.Fatalf("%s: %s differ from the reference pass:\n got %+v\nwant %+v", at, c.what, c.cur, c.ref)
		}
	}
}

// TestPreemptionRefreshesFreeBound pins the case the random stream reaches
// least: a victim started in an earlier pass is requeued, and the room it
// leaves beyond the preemptor's share takes the next job in the same pass.
// The partition's free bound, taken when the node was full, must be
// refreshed for that job to be placed at all.
func TestPreemptionRefreshesFreeBound(t *testing.T) {
	clk := clock.NewSim(time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC))
	var ctls [2]*Controller
	for i := range ctls {
		cl, err := NewCluster(schedOracleConfig(), clk)
		if err != nil {
			t.Fatal(err)
		}
		ctls[i] = cl.Ctl
	}
	submit := func(qos string, cpus int) JobID {
		var id JobID
		for _, ctl := range ctls {
			var err error
			if id, err = ctl.Submit(SubmitRequest{
				Name: qos, User: "carol", Account: "lab-b", Partition: "shared", QOS: qos,
				ReqTRES: TRES{CPUs: cpus, MemMB: 1024, Nodes: 1}, TimeLimit: time.Hour,
				Profile: UsageProfile{ActualDuration: 30 * time.Minute, CPUUtilization: 1},
			}); err != nil {
				t.Fatal(err)
			}
		}
		return id
	}
	tick := func() {
		clk.Advance(time.Minute)
		ctls[0].Tick()
		ctls[1].refTick()
	}
	victim := submit("standby", 8)
	tick()
	first, second := submit("low", 2), submit("low", 2)
	tick()
	for i, ctl := range ctls {
		for id, want := range map[JobID]JobState{victim: StatePending, first: StateRunning, second: StateRunning} {
			if j := ctl.Job(id); j.State != want {
				t.Errorf("controller %d: job %d (%s) is %s, want %s", i, id, j.Name, j.State, want)
			}
		}
	}
}

// TestSchedulePassAllocsIndependentOfBacklog pins the pass's allocations to
// the Tick, not the pending job: ten times the backlog costs at most a few
// more allocations, and an idle Tick allocates no more than the reference.
func TestSchedulePassAllocsIndependentOfBacklog(t *testing.T) {
	tick := func(pending int) float64 {
		cl, clk := backlogCluster(t, pending)
		return testing.AllocsPerRun(20, func() {
			clk.Advance(time.Second)
			cl.Ctl.Tick()
		})
	}
	few, many := tick(100), tick(1000)
	t.Logf("Tick allocs: backlog 100 %.0f, backlog 1000 %.0f", few, many)
	if many-few > 4 {
		t.Fatalf("Tick allocs: backlog 1000 %.0f, backlog 100 %.0f: per-job allocations in the pass", many, few)
	}

	idle := func(tick func(*Controller)) float64 {
		clk := clock.NewSim(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
		cl, err := NewCluster(schedOracleConfig(), clk)
		if err != nil {
			t.Fatal(err)
		}
		tick(cl.Ctl)
		return testing.AllocsPerRun(20, func() {
			clk.Advance(time.Second)
			tick(cl.Ctl)
		})
	}
	cur, ref := idle((*Controller).Tick), idle((*Controller).refTick)
	t.Logf("idle Tick allocs: %.0f, reference %.0f", cur, ref)
	if cur > ref {
		t.Fatalf("idle Tick allocates %.0f, the reference %.0f", cur, ref)
	}
}
