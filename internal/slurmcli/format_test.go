package slurmcli

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"ooddash/internal/slurm"
)

func TestSqueueCustomFormat(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "fmt", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 4096, GPUs: 0},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	out, err := r.Run("squeue", "-h", "-o", "%u/%a/%q/%m/%b/%e")
	if err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(out)
	if line != "alice/lab-a/normal/4G/N/A/Unknown" {
		t.Fatalf("line = %q", line)
	}
	// Width padding pads short values.
	out, err = r.Run("squeue", "-h", "-o", "%.10u|")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "     alice|") {
		t.Fatalf("padded = %q", out)
	}
	// Unknown verbs pass through literally (squeue prints them raw).
	out, err = r.Run("squeue", "-h", "-o", "%Z")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "%Z" {
		t.Fatalf("unknown verb = %q", out)
	}
}

func TestSqueueGresColumn(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	mustSubmit(t, cl, slurm.SubmitRequest{
		User: "carol", Account: "lab-b", Partition: "gpu",
		ReqTRES: slurm.TRES{CPUs: 4, MemMB: 8192, GPUs: 2},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	out, err := r.Run("squeue", "-h", "-u", "carol", "-o", "%b")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "gres/gpu:2" {
		t.Fatalf("gres = %q", out)
	}
}

func TestSqueueNodeFilter(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	id := mustSubmit(t, cl, slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	node := cl.Ctl.Job(id).Nodes[0]
	out, err := r.Run("squeue", "-h", "-w", node, "-o", "%i")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) == "" {
		t.Fatal("node filter found nothing")
	}
	out, err = r.Run("squeue", "-h", "-w", "c004", "-o", "%i")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "" {
		t.Fatalf("wrong node matched: %q", out)
	}
}

func TestSinfoCustomFormatAndPartitionFilter(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	cl.Ctl.Tick()
	out, err := r.Run("sinfo", "-h", "-p", "gpu", "-o", "%P %t %D")
	if err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(out)
	if line != "gpu idle 1" {
		t.Fatalf("line = %q", line)
	}
}

func TestSacctDefaultTableMode(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "tabular", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	out, err := r.Run("sacct", "-u", "alice")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "JobID") || !strings.Contains(lines[1], "tabular") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestSacctUnknownFieldErrors(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	mustSubmit(t, cl, slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	if _, err := r.Run("sacct", "--format", "JobID,Bogus"); err == nil {
		t.Fatal("expected unknown-field error")
	}
}

func TestScontrolShowPartitionText(t *testing.T) {
	r, _, _ := newTestRunner(t)
	out, err := r.Run("scontrol", "show", "partition", "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PartitionName=cpu") || !strings.Contains(out, "Default=YES") {
		t.Fatalf("out:\n%s", out)
	}
	if !strings.Contains(out, "MaxTime=1-00:00:00") {
		t.Fatalf("max time missing:\n%s", out)
	}
	if _, err := r.Run("scontrol", "show", "partition", "nope"); err == nil {
		t.Fatal("expected unknown partition error")
	}
}

func TestScontrolHoldReleaseCommands(t *testing.T) {
	r, cl, _ := newTestRunner(t)
	id := mustSubmit(t, cl, slurm.SubmitRequest{
		User: "alice", Account: "lab-a", Partition: "cpu", Hold: true,
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: time.Hour},
	})
	cl.Ctl.Tick()
	if _, err := r.Run("scontrol", "release", jobIDArg(id), "user=alice"); err != nil {
		t.Fatal(err)
	}
	cl.Ctl.Tick()
	if got := cl.Ctl.Job(id).State; got != slurm.StateRunning {
		t.Fatalf("released job = %s", got)
	}
	if _, err := r.Run("scontrol", "hold", "notanumber"); err == nil {
		t.Fatal("expected bad-id error")
	}
}

func jobIDArg(id slurm.JobID) string {
	return strconv.FormatInt(int64(id), 10)
}

func TestBadCommandArguments(t *testing.T) {
	r, _, _ := newTestRunner(t)
	cases := [][]string{
		{"sinfo", "--bogus"},
		{"sacct", "--starttime", "nope"},
		{"sacct", "--limit", "x"},
		{"scontrol"},
		{"scontrol", "show"},
		{"scontrol", "show", "widgets"},
		{"scontrol", "show", "node", "zz[001-"},
		{"scancel"},
		{"scancel", "potato"},
		{"sdiag", "--flag"},
		{"sprio", "--bogus"},
		{"sreport", "job", "Sizes"},
		{"sreport", "cluster", "AccountUtilizationByUser", "start=nope"},
		{"squeue", "-u"},
	}
	for _, argv := range cases {
		if _, err := r.Run(argv[0], argv[1:]...); err == nil {
			t.Errorf("%v: expected error", argv)
		}
	}
}

func TestSacctRowHelpers(t *testing.T) {
	row := SacctRow{
		Elapsed:   2 * time.Hour,
		AllocTRES: slurm.TRES{GPUs: 2},
	}
	if got := row.GPUHours(); got != 4 {
		t.Fatalf("GPUHours = %v", got)
	}
	// Pending rows (no start) report zero wait.
	if got := (&SacctRow{}).WaitTime(); got != 0 {
		t.Fatalf("pending wait = %v", got)
	}
	// Non-OOD comments yield no session info.
	if _, _, ok := (&SacctRow{Comment: "just a note"}).SessionInfo(); ok {
		t.Fatal("non-ood comment parsed as session")
	}
}

func TestJobDetailSessionInfo(t *testing.T) {
	d := &JobDetail{Comment: "ood:app=matlab;session=abc123"}
	app, sess, ok := d.SessionInfo()
	if !ok || app != "matlab" || sess != "abc123" {
		t.Fatalf("session = %q %q %v", app, sess, ok)
	}
	// Empty and key-less elements are skipped; the last value of a key wins.
	for _, tc := range []struct {
		comment, app, session string
		ok                    bool
	}{
		{"ood:", "", "", false},
		{"ood:session=s1", "", "s1", false},
		{"ood:app=jupyter;", "jupyter", "", true},
		{"ood:;;app=rstudio;;session=x=y;", "rstudio", "x=y", true},
		{"ood:noise;app=a;app=b;session", "b", "", true},
		{"OOD:app=a", "", "", false},
	} {
		app, sess, ok := (&SacctRow{Comment: tc.comment}).SessionInfo()
		if app != tc.app || sess != tc.session || ok != tc.ok {
			t.Errorf("SessionInfo(%q) = %q %q %v, want %q %q %v", tc.comment, app, sess, ok, tc.app, tc.session, tc.ok)
		}
	}
}

func TestParseGresVariants(t *testing.T) {
	if typ, n := parseGres("gpu:4"); typ != "" || n != 4 {
		t.Fatalf("gpu:4 = %q %d", typ, n)
	}
	if typ, n := parseGres("gpu:a100:2"); typ != "a100" || n != 2 {
		t.Fatalf("gpu:a100:2 = %q %d", typ, n)
	}
	if typ, n := parseGres("weird"); typ != "" || n != 0 {
		t.Fatalf("weird = %q %d", typ, n)
	}
}

func TestParseHelperErrors(t *testing.T) {
	if _, err := atoiDefault("x"); err == nil {
		t.Fatal("atoiDefault accepted garbage")
	}
	if _, err := atoi64Default("x"); err == nil {
		t.Fatal("atoi64Default accepted garbage")
	}
	if _, err := parseFloatDefault("x"); err == nil {
		t.Fatal("parseFloatDefault accepted garbage")
	}
	if v, err := parseFloatDefault("1.5"); err != nil || v != 1.5 {
		t.Fatalf("parseFloatDefault = %v %v", v, err)
	}
}

func TestPartitionStatusZeroDenominators(t *testing.T) {
	p := PartitionStatus{}
	if p.CPUPercent() != 0 || p.GPUPercent() != 0 {
		t.Fatal("zero-capacity percent not 0")
	}
}

func TestSacctFilterOptionsThroughWrapper(t *testing.T) {
	r, cl, clock := newTestRunner(t)
	mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "cpu-one", User: "alice", Account: "lab-a", Partition: "cpu",
		ReqTRES: slurm.TRES{CPUs: 1, MemMB: 512},
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute},
	})
	mustSubmit(t, cl, slurm.SubmitRequest{
		Name: "gpu-one", User: "carol", Account: "lab-b", Partition: "gpu",
		ReqTRES: slurm.TRES{CPUs: 2, MemMB: 1024, GPUs: 1},
		Profile: slurm.UsageProfile{ActualDuration: 10 * time.Minute,
			FailureState: slurm.StateFailed, ExitCode: 9},
	})
	cl.Ctl.Tick()
	clock.Advance(20 * time.Minute)
	cl.Ctl.Tick()

	// Accounts filter.
	rows, err := Sacct(r, SacctOptions{Accounts: []string{"lab-b"}, AllUsers: true})
	if err != nil || len(rows) != 1 || rows[0].Name != "gpu-one" {
		t.Fatalf("accounts filter = %+v, %v", rows, err)
	}
	// Partition filter.
	rows, err = Sacct(r, SacctOptions{Partition: "gpu", AllUsers: true})
	if err != nil || len(rows) != 1 || rows[0].Partition != "gpu" {
		t.Fatalf("partition filter = %+v, %v", rows, err)
	}
	// State filter.
	rows, err = Sacct(r, SacctOptions{States: []slurm.JobState{slurm.StateFailed}, AllUsers: true})
	if err != nil || len(rows) != 1 || rows[0].ExitCode != 9 {
		t.Fatalf("state filter = %+v, %v", rows, err)
	}
	// Job-ID filter.
	id := rows[0].RawID
	rows, err = Sacct(r, SacctOptions{JobIDs: []slurm.JobID{id}, AllUsers: true})
	if err != nil || len(rows) != 1 || rows[0].RawID != id {
		t.Fatalf("job-id filter = %+v, %v", rows, err)
	}
	// Limit.
	rows, err = Sacct(r, SacctOptions{AllUsers: true, Limit: 1})
	if err != nil || len(rows) != 1 {
		t.Fatalf("limit = %+v, %v", rows, err)
	}
}

func TestParseSacctOutputErrors(t *testing.T) {
	bad := []string{
		"onlyonefield",
		strings.Repeat("x|", 23) + "x\nshort|row",
	}
	for _, out := range bad {
		if _, err := parseSacctOutput(out); err == nil {
			t.Errorf("parseSacctOutput(%q): expected error", out)
		}
	}
	if rows, err := parseSacctOutput(""); err != nil || rows != nil {
		t.Fatalf("empty output = %+v, %v", rows, err)
	}
}
