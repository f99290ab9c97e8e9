package slurmcli

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ooddash/internal/slurm"
)

// sacctDefaultFields is the field list sacct prints without --format.
const sacctDefaultFields = "JobID,JobName,Partition,Account,AllocCPUS,State,ExitCode"

// runSacct emulates sacct against the accounting daemon. Supported options:
// -u/--user, -A/--accounts (comma list), -S/--starttime, -E/--endtime,
// -s/--state (comma list), -r/--partition, -j/--jobs (comma list),
// --format=<fields>, -P/--parsable2, -n/--noheader, -a/--allusers,
// and --limit (dashboard extension bounding the row count).
func runSacct(cl *slurm.Cluster, args []string) (string, error) {
	var (
		filter   slurm.JobFilter
		fields   = sacctDefaultFields
		parsable bool
		noHeader bool
	)
	sc := &argScanner{args: args}
	for {
		arg, ok := sc.next()
		if !ok {
			break
		}
		switch flagName(arg) {
		case "-u", "--user":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			filter.Users = strings.Split(v, ",")
		case "-A", "--accounts":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			filter.Accounts = strings.Split(v, ",")
		case "-S", "--starttime":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			t, err := ParseTime(v)
			if err != nil {
				return "", err
			}
			filter.Start = t
		case "-E", "--endtime":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			t, err := ParseTime(v)
			if err != nil {
				return "", err
			}
			filter.End = t
		case "-s", "--state":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			states, err := parseStates(v)
			if err != nil {
				return "", err
			}
			filter.States = states
		case "-r", "--partition":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			filter.Partition = v
		case "-j", "--jobs":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			// Each entry is a job ID N (the job and every task of array N)
			// or an array task N_T; a record matches when any entry names it.
			for _, idStr := range strings.Split(v, ",") {
				base, task, isTask := strings.Cut(idStr, "_")
				n, err := strconv.ParseInt(base, 10, 64)
				if err != nil {
					return "", fmt.Errorf("slurmcli: bad job id %q", idStr)
				}
				if !isTask {
					filter.JobIDs = append(filter.JobIDs, slurm.JobID(n))
					continue
				}
				t, err := strconv.Atoi(task)
				if err != nil {
					return "", fmt.Errorf("slurmcli: bad job id %q", idStr)
				}
				filter.Tasks = append(filter.Tasks, slurm.ArrayTask{ArrayJobID: slurm.JobID(n), TaskID: t})
			}
		case "--format":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			fields = v
		case "-P", "--parsable2":
			parsable = true
		case "-n", "--noheader":
			noHeader = true
		case "-a", "--allusers":
			filter.Users = nil
		case "-X", "--allocations":
			// Accepted for compatibility; the simulator has no job steps, so
			// every record is already allocation-level.
		case "--limit":
			v, err := sc.value(arg)
			if err != nil {
				return "", err
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return "", fmt.Errorf("slurmcli: bad --limit %q", v)
			}
			filter.Limit = n
		default:
			return "", fmt.Errorf("slurmcli: sacct: unknown option %q", arg)
		}
	}

	now := cl.Ctl.Now()
	names := strings.Split(fields, ",")
	// Field names are case-insensitive, matching sacct: lower-case them once.
	keys := strings.Split(strings.ToLower(fields), ",")
	for i := range keys {
		keys[i] = strings.TrimSpace(keys[i])
	}
	sep := "|"
	if !parsable {
		sep = "  "
	}
	var out strings.Builder
	if !noHeader {
		for i, f := range names {
			if i > 0 {
				out.WriteString(sep)
			}
			out.WriteString(f)
		}
		out.WriteByte('\n')
	}
	// Each row is appended into one reused buffer, then copied to out.
	var row []byte
	err := cl.DBD.EachJob(filter, now, func(j *slurm.Job) error {
		row = row[:0]
		for i, key := range keys {
			if i > 0 {
				row = append(row, sep...)
			}
			var ok bool
			if row, ok = appendSacctField(row, key, j, now); !ok {
				return fmt.Errorf("slurmcli: sacct: unknown field %q", names[i])
			}
		}
		out.Write(append(row, '\n'))
		return nil
	})
	if err != nil {
		return "", err
	}
	return out.String(), nil
}

// appendSacctField appends one sacct field of a job to b. key is the
// lower-cased, trimmed field name; ok is false for an unknown field.
func appendSacctField(b []byte, key string, j *slurm.Job, now time.Time) (_ []byte, ok bool) {
	switch key {
	case "jobid":
		return j.AppendDisplayID(b), true
	case "jobidraw":
		return strconv.AppendInt(b, int64(j.ID), 10), true
	case "jobname":
		return append(b, j.Name...), true
	case "user":
		return append(b, j.User...), true
	case "account":
		return append(b, j.Account...), true
	case "partition":
		return append(b, j.Partition...), true
	case "qos":
		return append(b, j.QOS...), true
	case "state":
		return append(b, j.State...), true
	case "reason":
		return append(b, j.Reason...), true
	case "submit":
		return appendTime(b, j.SubmitTime), true
	case "eligible":
		return appendTime(b, j.EligibleTime), true
	case "start":
		return appendTime(b, j.StartTime), true
	case "end":
		return appendTime(b, j.EndTime), true
	case "elapsed":
		return appendDuration(b, j.Elapsed(now)), true
	case "timelimit":
		return appendDuration(b, j.TimeLimit), true
	case "reqcpus":
		return strconv.AppendInt(b, int64(j.ReqTRES.CPUs), 10), true
	case "alloccpus":
		return strconv.AppendInt(b, int64(j.AllocTRES.CPUs), 10), true
	case "reqmem":
		return appendMem(b, j.ReqTRES.MemMB), true
	case "reqtres":
		return j.ReqTRES.AppendTo(b), true
	case "alloctres":
		return j.AllocTRES.AppendTo(b), true
	case "nnodes":
		return strconv.AppendInt(b, int64(len(j.Nodes)), 10), true
	case "nodelist":
		if len(j.Nodes) == 0 {
			return append(b, "None assigned"...), true
		}
		return slurm.AppendNodeNameRange(b, j.Nodes), true
	case "exitcode":
		return append(strconv.AppendInt(b, int64(j.ExitCode), 10), ":0"...), true
	case "maxrss":
		if j.StartTime.IsZero() {
			return b, true
		}
		return append(strconv.AppendInt(b, j.MaxRSSMB()*1024, 10), 'K'), true
	case "totalcpu":
		return appendDuration(b, j.CPUTimeUsed(now)), true
	case "priority":
		return strconv.AppendInt(b, j.Priority, 10), true
	case "workdir":
		return append(b, j.WorkDir...), true
	case "tresusageinave":
		// Job-level GPU utilization, the paper's §9 "GPU utilization
		// metrics" extension: average gres/gpuutil as a percentage, the way
		// recent Slurm releases report it via AcctGatherProfile plugins.
		if j.AllocTRES.GPUs == 0 || j.StartTime.IsZero() {
			return b, true
		}
		b = append(b, "gres/gpuutil="...)
		return strconv.AppendFloat(b, j.Profile.GPUUtilization*100, 'f', 1, 64), true
	case "comment":
		// Open OnDemand interactive sessions are tagged in the job comment;
		// the dashboard's session tab (§7) reads them back from here.
		if j.InteractiveApp == "" {
			return b, true
		}
		b = append(b, "ood:app="...)
		b = append(b, j.InteractiveApp...)
		b = append(b, ";session="...)
		return append(b, j.SessionID...), true
	}
	return b, false
}

// sacctQueryFields is the field list the typed Sacct wrapper requests.
const sacctQueryFields = "JobIDRaw,JobID,JobName,User,Account,Partition,QOS," +
	"State,Reason,Submit,Start,End,Elapsed,Timelimit,ReqCPUS,AllocCPUS," +
	"ReqMem,AllocTRES,NodeList,ExitCode,MaxRSS,TotalCPU,TRESUsageInAve,Comment,WorkDir"

// SacctRow is one parsed accounting record with everything the dashboard's
// My Jobs table, Job Performance Metrics, and Job Overview pages need.
type SacctRow struct {
	RawID      slurm.JobID
	JobID      string // display ID ("1234" or "1234_7")
	Name       string
	User       string
	Account    string
	Partition  string
	QOS        string
	State      slurm.JobState
	Reason     slurm.PendingReason
	SubmitTime time.Time
	StartTime  time.Time
	EndTime    time.Time
	Elapsed    time.Duration
	TimeLimit  time.Duration
	ReqCPUs    int
	AllocCPUs  int
	ReqMemMB   int64
	AllocTRES  slurm.TRES
	NodeList   string
	ExitCode   int
	MaxRSSMB   int64
	TotalCPU   time.Duration
	// GPUUtilPercent is the mean GPU utilization percentage, negative when
	// not measured (no GPUs or job never ran) — the §9 extension metric.
	GPUUtilPercent float64
	Comment        string
	WorkDir        string
}

// IsArrayTask reports whether the row is an array task ("1234_7").
func (r *SacctRow) IsArrayTask() bool { return strings.Contains(r.JobID, "_") }

// GPUHours returns the GPU hours the job has consumed so far.
func (r *SacctRow) GPUHours() float64 {
	return r.Elapsed.Hours() * float64(r.AllocTRES.GPUs)
}

// WaitTime returns how long the job waited before starting; for jobs still
// pending it is the time since submission (now must be supplied by caller
// via the dashboard layer, so pending rows use Elapsed==0 and report zero).
func (r *SacctRow) WaitTime() time.Duration {
	if r.StartTime.IsZero() {
		return 0
	}
	return r.StartTime.Sub(r.SubmitTime)
}

// SessionInfo extracts the Open OnDemand app and session ID from the
// comment, returning ok=false for batch jobs.
func (r *SacctRow) SessionInfo() (app, session string, ok bool) {
	const prefix = "ood:"
	if !strings.HasPrefix(r.Comment, prefix) {
		return "", "", false
	}
	for rest := r.Comment[len(prefix):]; rest != ""; {
		var kv string
		kv, rest, _ = strings.Cut(rest, ";")
		k, v, found := strings.Cut(kv, "=")
		if !found {
			continue
		}
		switch k {
		case "app":
			app = v
		case "session":
			session = v
		}
	}
	return app, session, app != ""
}

// SacctOptions are the filters the typed Sacct wrapper supports.
type SacctOptions struct {
	User      string
	Accounts  []string
	States    []slurm.JobState
	Start     time.Time
	End       time.Time
	Partition string
	JobIDs    []slurm.JobID
	ArrayJob  string // array job ID: sacct -j N, job N and every task of array N
	AllUsers  bool
	Limit     int
}

// Sacct runs sacct through the Runner and parses the rows.
func Sacct(r Runner, opts SacctOptions) ([]SacctRow, error) {
	args := []string{"-P", "-n", "-X", "--format", sacctQueryFields}
	if opts.User != "" {
		args = append(args, "-u", opts.User)
	}
	if opts.AllUsers {
		args = append(args, "-a")
	}
	if len(opts.Accounts) > 0 {
		args = append(args, "-A", strings.Join(opts.Accounts, ","))
	}
	if len(opts.States) > 0 {
		names := make([]string, len(opts.States))
		for i, s := range opts.States {
			names[i] = string(s)
		}
		args = append(args, "-s", strings.Join(names, ","))
	}
	if !opts.Start.IsZero() {
		args = append(args, "-S", FormatTime(opts.Start))
	}
	if !opts.End.IsZero() {
		args = append(args, "-E", FormatTime(opts.End))
	}
	if opts.Partition != "" {
		args = append(args, "-r", opts.Partition)
	}
	if len(opts.JobIDs) > 0 || opts.ArrayJob != "" {
		ids := make([]string, 0, len(opts.JobIDs)+1)
		for _, id := range opts.JobIDs {
			ids = append(ids, strconv.FormatInt(int64(id), 10))
		}
		if opts.ArrayJob != "" {
			ids = append(ids, opts.ArrayJob)
		}
		args = append(args, "-j", strings.Join(ids, ","))
	}
	if opts.Limit > 0 {
		args = append(args, "--limit", strconv.Itoa(opts.Limit))
	}
	out, err := r.Run("sacct", args...)
	if err != nil {
		return nil, err
	}
	return parseSacctOutput(out)
}

// sacctNumFields is the field count of sacctQueryFields, computed once at
// init instead of re-splitting the format string on every parse call.
var sacctNumFields = strings.Count(sacctQueryFields, ",") + 1

func parseSacctOutput(out string) ([]SacctRow, error) {
	rows := make([]SacctRow, 0, countLines(out))
	f := make([]string, sacctNumFields)
	err := forEachLine(out, func(line string) error {
		if isBlank(line) {
			return nil
		}
		if n := splitInto(line, '|', f); n != len(f) {
			return fmt.Errorf("slurmcli: sacct row has %d fields, want %d: %q", n, len(f), line)
		}
		var (
			row SacctRow
			err error
		)
		rawID, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return fmt.Errorf("slurmcli: bad raw job id %q", f[0])
		}
		row.RawID = slurm.JobID(rawID)
		row.JobID, row.Name, row.User = f[1], f[2], f[3]
		row.Account, row.Partition, row.QOS = f[4], f[5], f[6]
		row.State = slurm.JobState(f[7])
		row.Reason = slurm.PendingReason(f[8])
		if row.SubmitTime, err = ParseTime(f[9]); err != nil {
			return err
		}
		if row.StartTime, err = ParseTime(f[10]); err != nil {
			return err
		}
		if row.EndTime, err = ParseTime(f[11]); err != nil {
			return err
		}
		if row.Elapsed, err = ParseDuration(f[12]); err != nil {
			return err
		}
		if row.TimeLimit, err = ParseDuration(f[13]); err != nil {
			return err
		}
		if row.ReqCPUs, err = strconv.Atoi(f[14]); err != nil {
			return fmt.Errorf("slurmcli: bad ReqCPUS %q", f[14])
		}
		if row.AllocCPUs, err = strconv.Atoi(f[15]); err != nil {
			return fmt.Errorf("slurmcli: bad AllocCPUS %q", f[15])
		}
		if row.ReqMemMB, err = ParseMem(f[16]); err != nil {
			return err
		}
		if row.AllocTRES, err = slurm.ParseTRES(f[17]); err != nil {
			return err
		}
		row.NodeList = f[18]
		codeStr, _, _ := strings.Cut(f[19], ":")
		if row.ExitCode, err = strconv.Atoi(codeStr); err != nil {
			return fmt.Errorf("slurmcli: bad exit code %q", f[19])
		}
		if f[20] != "" {
			kb, err := strconv.ParseInt(strings.TrimSuffix(f[20], "K"), 10, 64)
			if err != nil {
				return fmt.Errorf("slurmcli: bad MaxRSS %q", f[20])
			}
			row.MaxRSSMB = kb / 1024
		}
		if row.TotalCPU, err = ParseDuration(f[21]); err != nil {
			return err
		}
		row.GPUUtilPercent = -1
		if _, util, ok := strings.Cut(f[22], "gres/gpuutil="); ok {
			if row.GPUUtilPercent, err = strconv.ParseFloat(util, 64); err != nil {
				return fmt.Errorf("slurmcli: bad TRESUsageInAve %q", f[22])
			}
		}
		row.Comment, row.WorkDir = f[23], f[24]
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, nil
	}
	return rows, nil
}
