package slurm

import (
	"fmt"
	"testing"
	"time"

	"ooddash/internal/clock"
)

// benchCluster builds a cluster with the given node count and fills it to
// ~70% with running jobs plus a pending backlog.
func benchCluster(b *testing.B, nodes, runningJobs, pendingJobs int) (*Cluster, *clock.Sim) {
	b.Helper()
	clk := clock.NewSim(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
	cfg := ClusterConfig{
		Name: "bench",
		Nodes: []NodeSpec{
			{NamePrefix: "a", Count: nodes, CPUs: 128, MemMB: 256 * 1024, Partitions: []string{"cpu"}},
		},
		Partitions:   []PartitionSpec{{Name: "cpu", MaxTime: 96 * time.Hour, Default: true}},
		QOS:          []QOS{{Name: "normal"}},
		Associations: []Association{{Account: "lab"}, {Account: "lab", User: "u"}},
	}
	cl, err := NewCluster(cfg, clk)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < runningJobs+pendingJobs; i++ {
		if _, err := cl.Ctl.Submit(SubmitRequest{
			Name: fmt.Sprintf("bench-%d", i), User: "u", Account: "lab",
			Partition: "cpu", QOS: "normal",
			ReqTRES:   TRES{CPUs: 16, MemMB: 16 * 1024},
			TimeLimit: 12 * time.Hour,
			Profile:   UsageProfile{ActualDuration: 6 * time.Hour, CPUUtilization: 0.8, MemUtilization: 0.5},
		}); err != nil {
			b.Fatal(err)
		}
	}
	cl.Ctl.Tick()
	return cl, clk
}

func BenchmarkTickSteadyState(b *testing.B) {
	for _, size := range []struct{ nodes, running, pending int }{
		{64, 256, 50},
		{512, 2048, 500},
	} {
		name := fmt.Sprintf("nodes=%d/backlog=%d", size.nodes, size.pending)
		b.Run(name, func(b *testing.B) {
			cl, clock := benchCluster(b, size.nodes, size.running, size.pending)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clock.Advance(time.Second)
				cl.Ctl.Tick()
			}
		})
	}
}

// backlogCluster builds the regime workload.Build replays in: three
// partitions over node classes with different features, every node full, a
// pending backlog with feature constraints and time limits that reach into
// the maintenance windows ahead (one on a rack, one on the whole cluster).
// Nothing in the backlog can start, so every Tick makes a full pass of
// placement attempts that all fail.
func backlogCluster(tb testing.TB, pending int) (*Cluster, *clock.Sim) {
	tb.Helper()
	clk := clock.NewSim(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
	cfg := ClusterConfig{
		Name: "backlog",
		Nodes: []NodeSpec{
			{NamePrefix: "a", Count: 384, CPUs: 128, MemMB: 256 * 1024, Features: []string{"milan", "avx2"}, Partitions: []string{"cpu", "debug"}},
			{NamePrefix: "b", Count: 96, CPUs: 128, MemMB: 1024 * 1024, Features: []string{"milan", "bigmem"}, Partitions: []string{"highmem"}},
			{NamePrefix: "g", Count: 32, CPUs: 64, MemMB: 512 * 1024, GPUs: 4, GPUType: "a100", Features: []string{"milan", "a100"}, Partitions: []string{"gpu"}},
		},
		Partitions: []PartitionSpec{
			{Name: "cpu", MaxTime: 96 * time.Hour, Default: true, Priority: 100},
			{Name: "highmem", MaxTime: 48 * time.Hour, Priority: 100},
			{Name: "gpu", MaxTime: 48 * time.Hour, Priority: 100},
			{Name: "debug", MaxTime: 30 * time.Minute, Priority: 500},
		},
		QOS:          []QOS{{Name: "normal"}},
		Associations: []Association{{Account: "lab", GrpCPULimit: 1 << 20}, {Account: "lab", User: "u"}},
	}
	cl, err := NewCluster(cfg, clk)
	if err != nil {
		tb.Fatal(err)
	}
	submit := func(req SubmitRequest) {
		req.Name, req.User, req.Account, req.QOS = "backlog", "u", "lab", "normal"
		req.Profile = UsageProfile{ActualDuration: 40 * time.Hour, CPUUtilization: 0.8, MemUtilization: 0.5}
		if _, err := cl.Ctl.Submit(req); err != nil {
			tb.Fatal(err)
		}
	}
	// One whole-node job per node fills the cluster.
	for _, f := range []struct {
		part  string
		count int
		tres  TRES
	}{
		{"cpu", 384, TRES{CPUs: 128, MemMB: 128 * 1024}},
		{"highmem", 96, TRES{CPUs: 128, MemMB: 512 * 1024}},
		{"gpu", 32, TRES{CPUs: 64, MemMB: 256 * 1024, GPUs: 4}},
	} {
		for i := 0; i < f.count; i++ {
			submit(SubmitRequest{Partition: f.part, ReqTRES: f.tres, TimeLimit: 48 * time.Hour})
		}
	}
	cl.Ctl.Tick()
	now := clk.Now()
	rack := make([]string, 0, 26)
	for i := 1; i <= 26; i++ {
		rack = append(rack, fmt.Sprintf("a%03d", 100+i))
	}
	if _, err := cl.Ctl.ScheduleMaintenance("rack", now.Add(24*time.Hour), now.Add(30*time.Hour), rack, "rack"); err != nil {
		tb.Fatal(err)
	}
	if _, err := cl.Ctl.ScheduleMaintenance("all", now.Add(72*time.Hour), now.Add(80*time.Hour), nil, "all"); err != nil {
		tb.Fatal(err)
	}
	backlog := []SubmitRequest{
		{Partition: "cpu", ReqTRES: TRES{CPUs: 16, MemMB: 16 * 1024}, TimeLimit: 12 * time.Hour},
		{Partition: "cpu", ReqTRES: TRES{CPUs: 64, MemMB: 64 * 1024, Nodes: 2}, TimeLimit: 36 * time.Hour, Constraint: "avx2"},
		{Partition: "highmem", ReqTRES: TRES{CPUs: 32, MemMB: 400 * 1024}, TimeLimit: 30 * time.Hour, Constraint: "bigmem"},
		{Partition: "gpu", ReqTRES: TRES{CPUs: 16, MemMB: 64 * 1024, GPUs: 1}, TimeLimit: 4 * time.Hour, Constraint: "a100"},
	}
	for i := 0; i < pending; i++ {
		submit(backlog[i%len(backlog)])
	}
	cl.Ctl.Tick()
	return cl, clk
}

// BenchmarkTickBacklog ticks a full cluster whose backlog cannot start: the
// scheduling pass workload.Build spends most of its time in.
func BenchmarkTickBacklog(b *testing.B) {
	for _, pending := range []int{100, 1000} {
		b.Run(fmt.Sprintf("backlog=%d", pending), func(b *testing.B) {
			cl, clk := backlogCluster(b, pending)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clk.Advance(time.Second)
				cl.Ctl.Tick()
			}
		})
	}
}

func BenchmarkSubmit(b *testing.B) {
	cl, _ := benchCluster(b, 64, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Ctl.Submit(SubmitRequest{
			Name: "s", User: "u", Account: "lab", Partition: "cpu", QOS: "normal",
			ReqTRES: TRES{CPUs: 1, MemMB: 512}, TimeLimit: time.Hour,
			Profile: UsageProfile{ActualDuration: time.Hour, CPUUtilization: 0.5, MemUtilization: 0.5},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSqueueQuery(b *testing.B) {
	cl, _ := benchCluster(b, 512, 2048, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if jobs := cl.Ctl.Jobs(LiveJobFilter{User: "u"}); len(jobs) == 0 {
			b.Fatal("empty queue")
		}
	}
}

func BenchmarkUtilization(b *testing.B) {
	cl, _ := benchCluster(b, 512, 2048, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if util := cl.Ctl.Utilization(); len(util) == 0 {
			b.Fatal("no partitions")
		}
	}
}

func BenchmarkNodesSnapshot(b *testing.B) {
	cl, _ := benchCluster(b, 512, 1024, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nodes := cl.Ctl.Nodes(); len(nodes) != 512 {
			b.Fatal("bad node count")
		}
	}
}

func BenchmarkDBDQueryWindow(b *testing.B) {
	cl, clock := benchCluster(b, 64, 256, 0)
	// Age jobs into history.
	for i := 0; i < 50; i++ {
		clock.Advance(time.Hour)
		cl.Ctl.Tick()
	}
	now := clock.Now()
	filter := JobFilter{Users: []string{"u"}, Start: now.Add(-24 * time.Hour), End: now}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.DBD.Jobs(filter, now)
	}
}

func BenchmarkEventsDeltaPoll(b *testing.B) {
	cl, _ := benchCluster(b, 64, 256, 0)
	head := cl.Ctl.LastEventSeq()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if evs := cl.Ctl.EventsSince(head, 0); len(evs) != 0 {
			b.Fatal("unexpected events")
		}
	}
}

func BenchmarkNodeNameRange(b *testing.B) {
	names := make([]string, 512)
	for i := range names {
		names[i] = fmt.Sprintf("a%03d", i+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := NodeNameRange(names); out == "" {
			b.Fatal("empty range")
		}
	}
}
