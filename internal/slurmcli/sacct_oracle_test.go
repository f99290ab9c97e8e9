package slurmcli

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"ooddash/internal/clock"
	"ooddash/internal/slurm"
)

// sacctField is the reference renderer for one sacct field, the per-field
// string form runSacct's appendSacctField must match byte for byte. Field
// names are case-insensitive, matching sacct.
func sacctField(name string, j *slurm.Job, now time.Time) (string, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "jobid":
		return j.DisplayID(), nil
	case "jobidraw":
		return strconv.FormatInt(int64(j.ID), 10), nil
	case "jobname":
		return j.Name, nil
	case "user":
		return j.User, nil
	case "account":
		return j.Account, nil
	case "partition":
		return j.Partition, nil
	case "qos":
		return j.QOS, nil
	case "state":
		return string(j.State), nil
	case "reason":
		return string(j.Reason), nil
	case "submit":
		return FormatTime(j.SubmitTime), nil
	case "eligible":
		return FormatTime(j.EligibleTime), nil
	case "start":
		return FormatTime(j.StartTime), nil
	case "end":
		return FormatTime(j.EndTime), nil
	case "elapsed":
		return FormatDuration(j.Elapsed(now)), nil
	case "timelimit":
		return FormatDuration(j.TimeLimit), nil
	case "reqcpus":
		return strconv.Itoa(j.ReqTRES.CPUs), nil
	case "alloccpus":
		return strconv.Itoa(j.AllocTRES.CPUs), nil
	case "reqmem":
		return FormatMem(j.ReqTRES.MemMB), nil
	case "reqtres":
		return j.ReqTRES.String(), nil
	case "alloctres":
		return j.AllocTRES.String(), nil
	case "nnodes":
		return strconv.Itoa(len(j.Nodes)), nil
	case "nodelist":
		if len(j.Nodes) == 0 {
			return "None assigned", nil
		}
		return slurm.NodeNameRange(j.Nodes), nil
	case "exitcode":
		return fmt.Sprintf("%d:0", j.ExitCode), nil
	case "maxrss":
		if j.StartTime.IsZero() {
			return "", nil
		}
		return fmt.Sprintf("%dK", j.MaxRSSMB()*1024), nil
	case "totalcpu":
		return FormatDuration(j.CPUTimeUsed(now)), nil
	case "priority":
		return strconv.FormatInt(j.Priority, 10), nil
	case "workdir":
		return j.WorkDir, nil
	case "tresusageinave":
		if j.AllocTRES.GPUs == 0 || j.StartTime.IsZero() {
			return "", nil
		}
		return fmt.Sprintf("gres/gpuutil=%.1f", j.Profile.GPUUtilization*100), nil
	case "comment":
		if j.InteractiveApp == "" {
			return "", nil
		}
		return fmt.Sprintf("ood:app=%s;session=%s", j.InteractiveApp, j.SessionID), nil
	default:
		return "", fmt.Errorf("slurmcli: sacct: unknown field %q", name)
	}
}

// referenceSacct renders sacct text the reference way: cloned records from
// DBD.Jobs, one sacctField string per field.
func referenceSacct(cl *slurm.Cluster, f slurm.JobFilter, fields string, parsable, noHeader bool) (string, error) {
	now := cl.Ctl.Now()
	jobs := cl.DBD.Jobs(f, now)
	fieldList := strings.Split(fields, ",")
	sep := "|"
	if !parsable {
		sep = "  "
	}
	var b strings.Builder
	if !noHeader {
		b.WriteString(strings.Join(fieldList, sep))
		b.WriteByte('\n')
	}
	for _, j := range jobs {
		for i, name := range fieldList {
			if i > 0 {
				b.WriteString(sep)
			}
			v, err := sacctField(name, j, now)
			if err != nil {
				return "", err
			}
			b.WriteString(v)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// sacctAllFields names every field runSacct supports.
var sacctAllFields = []string{
	"JobID", "JobIDRaw", "JobName", "User", "Account", "Partition", "QOS", "State",
	"Reason", "Submit", "Eligible", "Start", "End", "Elapsed", "Timelimit", "ReqCPUS",
	"AllocCPUS", "ReqMem", "ReqTRES", "AllocTRES", "NNodes", "NodeList", "ExitCode",
	"MaxRSS", "TotalCPU", "Priority", "WorkDir", "TRESUsageInAve", "Comment",
}

// oracleSacctCluster builds the CLI test cluster and feeds it a random job
// stream: batch, GPU, multi-node, array and interactive-app jobs, holds,
// cancels, suspensions, and Backfill history whose node lists mix padded
// runs, gaps, unnumbered and differently padded names.
func oracleSacctCluster(t *testing.T, seed int64) (*slurm.Cluster, *clock.Sim) {
	t.Helper()
	_, cl, clk := newTestRunner(t)
	r := rand.New(rand.NewSource(seed))
	users := map[string]string{"alice": "lab-a", "carol": "lab-b"}
	names := []string{"alice", "carol"}
	nodeLists := [][]string{
		nil, {"c1"}, {"c1", "c2", "c3"}, {"c1", "c3", "login"}, {"n9", "n10", "n11"},
		{"g01", "g001", "g002"}, {"c3", "c1", "c2", "x"}, {"n99999999999999999999", "n1"},
	}
	var live []slurm.JobID
	histID := slurm.JobID(1)
	for step := 0; step < 120; step++ {
		switch op := r.Intn(8); {
		case op < 4:
			user := names[r.Intn(len(names))]
			req := slurm.SubmitRequest{
				Name: fmt.Sprintf("job-%d", step), User: user, Account: users[user], Partition: "cpu",
				ReqTRES:   slurm.TRES{CPUs: 1 + r.Intn(8), MemMB: int64(512 * (1 + r.Intn(8))), Nodes: 1},
				TimeLimit: time.Duration(1+r.Intn(11)) * time.Hour,
				Profile: slurm.UsageProfile{
					ActualDuration: time.Duration(5+r.Intn(600)) * time.Minute,
					CPUUtilization: r.Float64(), MemUtilization: r.Float64(), GPUUtilization: r.Float64(),
					ExitCode: r.Intn(3),
				},
			}
			switch r.Intn(5) {
			case 0:
				req.Partition, req.ReqTRES.GPUs = "gpu", 1+r.Intn(2)
			case 1:
				req.ReqTRES.Nodes, req.ReqTRES.CPUs = 2, 16
			case 2:
				req.InteractiveApp, req.SessionID = "jupyter", fmt.Sprintf("s-%d", step)
			}
			if r.Intn(4) == 0 {
				req.ArraySize = 2 + r.Intn(3)
			}
			req.Hold = r.Intn(12) == 0
			live = append(live, mustSubmit(t, cl, req))
		case op < 6:
			clk.Advance(time.Duration(1+r.Intn(240)) * time.Minute)
			cl.Ctl.Tick()
		case op == 6 && len(live) > 0:
			id := live[r.Intn(len(live))]
			if r.Intn(2) == 0 {
				_ = cl.Ctl.Cancel(id, "")
			} else {
				_ = cl.Ctl.Suspend(id, "")
			}
		default:
			now := clk.Now()
			submit := now.Add(-time.Duration(r.Intn(72*60)) * time.Minute)
			end := submit.Add(time.Duration(1+r.Intn(50*60)) * time.Minute)
			user := names[r.Intn(len(names))]
			tres := slurm.TRES{CPUs: 1 + r.Intn(64), MemMB: int64(r.Intn(4)) * 1000, GPUs: r.Intn(3), Nodes: r.Intn(3)}
			j := &slurm.Job{
				ID: histID, Name: "hist", User: user, Account: users[user], Partition: "cpu", QOS: "normal",
				State: slurm.StateCompleted, SubmitTime: submit, StartTime: submit.Add(time.Minute), EndTime: end,
				TimeLimit: time.Duration(r.Intn(100)) * time.Hour, ReqTRES: tres, AllocTRES: tres,
				Nodes: nodeLists[r.Intn(len(nodeLists))], ExitCode: r.Intn(256), Priority: r.Int63n(1 << 40),
				WorkDir: "/home/" + user,
			}
			j.Profile.GPUUtilization = r.Float64()
			j.Profile.MemUtilization = r.Float64()
			if r.Intn(3) == 0 {
				j.ArrayJobID, j.ArrayTaskID = histID, r.Intn(10)
			}
			cl.DBD.Backfill([]*slurm.Job{j})
			histID++
		}
	}
	return cl, clk
}

// randomSacctArgs draws a sacct command line and the filter, field list and
// format flags it should parse to.
func randomSacctArgs(r *rand.Rand, jobs []*slurm.Job) (args []string, f slurm.JobFilter, fields string, parsable, noHeader bool) {
	pick := func() *slurm.Job { return jobs[r.Intn(len(jobs))] }
	fields = sacctDefaultFields
	if r.Intn(4) != 0 {
		n := 1 + r.Intn(len(sacctAllFields))
		list := make([]string, n)
		for i := range list {
			name := sacctAllFields[r.Intn(len(sacctAllFields))]
			switch r.Intn(4) {
			case 0:
				name = strings.ToLower(name)
			case 1:
				name = " " + strings.ToUpper(name) + " "
			}
			list[i] = name
		}
		if r.Intn(15) == 0 {
			list[r.Intn(n)] = "Bogus"
		}
		fields = strings.Join(list, ",")
		args = append(args, "--format", fields)
	}
	if r.Intn(3) == 0 {
		f.Users = []string{pick().User}
		args = append(args, "-u", f.Users[0])
		if r.Intn(4) == 0 {
			f.Users = nil
			args = append(args, "-a")
		}
	}
	if r.Intn(4) == 0 {
		f.Accounts = []string{pick().Account, "lab-z"}
		args = append(args, "-A", strings.Join(f.Accounts, ","))
	}
	if r.Intn(4) == 0 {
		f.States = []slurm.JobState{pick().State, slurm.StateRunning}
		args = append(args, "-s", string(f.States[0])+","+string(f.States[1]))
	}
	if r.Intn(6) == 0 {
		f.Partition = pick().Partition
		args = append(args, "-r", f.Partition)
	}
	edge := func() time.Time {
		j := pick()
		t := j.SubmitTime
		if r.Intn(2) == 0 && !j.EndTime.IsZero() {
			t = j.EndTime
		}
		return t.Add(time.Duration(r.Intn(3)-1) * time.Second).Truncate(time.Second)
	}
	if r.Intn(3) == 0 {
		f.Start = edge()
		args = append(args, "-S", FormatTime(f.Start))
	}
	if r.Intn(3) == 0 {
		f.End = edge()
		args = append(args, "-E", FormatTime(f.End))
	}
	if r.Intn(2) == 0 {
		var ids []string
		for n := 1 + r.Intn(5); n > 0; n-- {
			j := pick()
			switch r.Intn(8) {
			case 0:
				f.JobIDs = append(f.JobIDs, 777777) // unknown
				ids = append(ids, "777777")
			case 1, 2, 3:
				if j.ArrayJobID != 0 {
					// "N_T" names one task, "N" the whole array, and a
					// task past the last names nothing.
					arr := strconv.FormatInt(int64(j.ArrayJobID), 10)
					switch r.Intn(3) {
					case 0:
						f.Tasks = append(f.Tasks, slurm.ArrayTask{ArrayJobID: j.ArrayJobID, TaskID: j.ArrayTaskID})
						ids = append(ids, j.DisplayID())
					case 1:
						f.JobIDs = append(f.JobIDs, j.ArrayJobID)
						ids = append(ids, arr)
					default:
						f.Tasks = append(f.Tasks, slurm.ArrayTask{ArrayJobID: j.ArrayJobID, TaskID: 99})
						ids = append(ids, arr+"_99")
					}
					continue
				}
				fallthrough
			default:
				f.JobIDs = append(f.JobIDs, j.ID, j.ID) // duplicated
				ids = append(ids, strconv.FormatInt(int64(j.ID), 10), strconv.FormatInt(int64(j.ID), 10))
			}
		}
		args = append(args, "-j", strings.Join(ids, ","))
	}
	if r.Intn(3) == 0 {
		f.Limit = 1 + r.Intn(8)
		args = append(args, "--limit", strconv.Itoa(f.Limit))
	}
	if parsable = r.Intn(2) == 0; parsable {
		args = append(args, "-P")
	}
	if noHeader = r.Intn(2) == 0; noHeader {
		args = append(args, "-n")
	}
	if r.Intn(3) == 0 {
		args = append(args, "-X")
	}
	return args, f, fields, parsable, noHeader
}

// TestSacctTextMatchesReference is the randomized oracle for the sacct
// formatter: over random job streams and random command lines (every field,
// any case and padding, -P/-n, --limit, -j with unknown, duplicate and array
// IDs, filters on every option), runSacct's text and errors are
// byte-identical to the per-field reference. The expected filter follows
// sacct's -j rules: "N_T" is task T of array N, "N" is job N and every task
// of array N, and a record matches when any entry names it.
func TestSacctTextMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cl, clk := oracleSacctCluster(t, seed)
		jobs := cl.DBD.Jobs(slurm.JobFilter{}, clk.Now())
		if len(jobs) < 80 {
			t.Fatalf("seed %d: only %d records", seed, len(jobs))
		}
		all := strings.Join(sacctAllFields, ",")
		for _, mode := range []struct{ parsable, noHeader bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			args := []string{"--format", all}
			if mode.parsable {
				args = append(args, "-P")
			}
			if mode.noHeader {
				args = append(args, "-n")
			}
			got, err := runSacct(cl, args)
			want, wantErr := referenceSacct(cl, slurm.JobFilter{}, all, mode.parsable, mode.noHeader)
			if err != nil || wantErr != nil || got != want {
				t.Fatalf("seed %d sacct %q: err %v / %v, text equal %v", seed, args, err, wantErr, got == want)
			}
		}
		r := rand.New(rand.NewSource(seed))
		rows := 0
		for i := 0; i < 300; i++ {
			args, f, fields, parsable, noHeader := randomSacctArgs(r, jobs)
			got, err := runSacct(cl, args)
			want, wantErr := referenceSacct(cl, f, fields, parsable, noHeader)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("seed %d sacct %q: err %v, want %v", seed, args, err, wantErr)
			}
			if got != want {
				t.Fatalf("seed %d sacct %q:\n got %q\nwant %q", seed, args, got, want)
			}
			rows += strings.Count(got, "\n")
		}
		if rows < 300 {
			t.Fatalf("seed %d: only %d rows across 300 commands", seed, rows)
		}
	}
}

// TestSacctAllocsIndependentOfRows pins the sacct formatter's allocations to
// the call, not the row: a thousand rows cost only buffer growth over ten,
// and a -j query over many records clones none of them.
func TestSacctAllocsIndependentOfRows(t *testing.T) {
	_, cl, clk := newTestRunner(t)
	now := clk.Now()
	var hist []*slurm.Job
	ids := make([]string, 0, 200)
	for i := 0; i < 1200; i++ {
		submit := now.Add(-time.Duration(1200-i) * time.Minute)
		tres := slurm.TRES{CPUs: 4, MemMB: 8192, GPUs: i % 2, Nodes: 1}
		hist = append(hist, &slurm.Job{
			ID: slurm.JobID(1 + i), Name: "hist", User: "alice", Account: "lab-a", Partition: "cpu",
			QOS: "normal", State: slurm.StateCompleted, SubmitTime: submit, StartTime: submit,
			EndTime: submit.Add(30 * time.Minute), TimeLimit: time.Hour, ReqTRES: tres, AllocTRES: tres,
			Nodes: []string{"c1", "c2"}, WorkDir: "/home/alice",
		})
		if i%6 == 0 {
			ids = append(ids, strconv.Itoa(1+i))
		}
	}
	cl.DBD.Backfill(hist)
	allocs := func(args ...string) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := runSacct(cl, args); err != nil {
				t.Fatal(err)
			}
		})
	}
	query := []string{"-P", "-n", "-X", "--format", sacctQueryFields, "-u", "alice"}
	few := allocs(append(query, "--limit", "10")...)
	many := allocs(append(query, "--limit", "1000")...)
	t.Logf("sacct allocs: 10 rows %.0f, 1000 rows %.0f", few, many)
	if many-few > 32 {
		t.Fatalf("sacct allocs: 1000 rows %.0f, 10 rows %.0f: more than buffer growth", many, few)
	}
	byID := []string{"-P", "-n", "-X", "--format", sacctQueryFields, "-j", strings.Join(ids, ",")}
	none := allocs(append(byID, "-u", "nobody")...)
	all := allocs(append(byID, "-u", "alice")...)
	t.Logf("sacct -j allocs: no rows %.0f, %d rows %.0f", none, len(ids), all)
	if all-none > 32 {
		t.Fatalf("sacct -j allocs: %d rows %.0f, no rows %.0f: per-record work", len(ids), all, none)
	}
}
