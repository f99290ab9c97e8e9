package core

import (
	"context"
	"encoding/csv"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ooddash/internal/efficiency"
	"ooddash/internal/efficiency/effmath"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// explainReason adapts the efficiency package's reason table for routes.
func explainReason(r slurm.PendingReason) (string, bool) {
	if r == slurm.ReasonNone || r == "" {
		return "", false
	}
	return efficiency.ExplainReason(r)
}

// parseTimeRange interprets the range/from/to query parameters shared by
// My Jobs and Job Performance Metrics (§5: last 24 hours through all time,
// plus a custom range).
func parseTimeRange(r *http.Request, now time.Time) (start, end time.Time, err error) {
	return parseTimeRangeDefault(r, now, "7d")
}

// parseTimeRangeDefault is parseTimeRange with a caller-chosen default
// range, for the long-horizon usage widgets that default to a year. An
// empty custom window (from == to, or ending before it starts) is rejected:
// every range here is half-open, so such a window can only ever be empty.
func parseTimeRangeDefault(r *http.Request, now time.Time, def string) (start, end time.Time, err error) {
	rng := r.URL.Query().Get("range")
	if rng == "" {
		rng = def
	}
	switch rng {
	case "24h":
		return now.Add(-24 * time.Hour), now, nil
	case "7d":
		return now.Add(-7 * 24 * time.Hour), now, nil
	case "30d":
		return now.Add(-30 * 24 * time.Hour), now, nil
	case "90d":
		return now.Add(-90 * 24 * time.Hour), now, nil
	case "1y":
		return now.Add(-365 * 24 * time.Hour), now, nil
	case "all":
		return time.Time{}, now, nil
	case "custom":
		from := r.URL.Query().Get("from")
		to := r.URL.Query().Get("to")
		start, err = time.Parse(time.RFC3339, from)
		if err != nil {
			return start, end, fmt.Errorf("%w: bad from %q", errBadRequest, from)
		}
		end, err = time.Parse(time.RFC3339, to)
		if err != nil {
			return start, end, fmt.Errorf("%w: bad to %q", errBadRequest, to)
		}
		if !end.After(start) {
			return start, end, fmt.Errorf("%w: range ends on or before it starts", errBadRequest)
		}
		return start, end, nil
	default:
		return start, end, fmt.Errorf("%w: unknown range %q", errBadRequest, rng)
	}
}

// EfficiencyView is the toggleable efficiency column triple (§4.3). Nil
// percentages mean not applicable (job has not run).
type EfficiencyView struct {
	TimePercent   *float64 `json:"time_percent"`
	CPUPercent    *float64 `json:"cpu_percent"`
	MemoryPercent *float64 `json:"memory_percent"`
	// GPUPercent carries the §9 GPU-utilization extension; null for
	// CPU-only jobs.
	GPUPercent *float64 `json:"gpu_percent"`
}

// efficiencyView points the applicable percentages into one shared array,
// so a row costs at most one allocation.
func efficiencyView(m efficiency.Metrics) EfficiencyView {
	var vals *[4]float64
	conv := func(i int, v float64) *float64 {
		if v < 0 {
			return nil
		}
		if vals == nil {
			vals = new([4]float64)
		}
		vals[i] = v
		return &vals[i]
	}
	return EfficiencyView{
		TimePercent:   conv(0, m.TimePercent),
		CPUPercent:    conv(1, m.CPUPercent),
		MemoryPercent: conv(2, m.MemoryPercent),
		GPUPercent:    conv(3, m.GPUPercent),
	}
}

// JobRow is one row of the My Jobs table (§4.1), expanded form included.
type JobRow struct {
	JobID     string `json:"job_id"`
	Name      string `json:"name"`
	User      string `json:"user"`
	Account   string `json:"account"`
	Partition string `json:"partition"`
	QOS       string `json:"qos"`
	State     string `json:"state"`
	Reason    string `json:"reason,omitempty"`
	// ReasonHelp is the friendly explanation of the pending reason.
	ReasonHelp string `json:"reason_help,omitempty"`

	SubmitTime time.Time `json:"submit_time"`
	StartTime  time.Time `json:"start_time,omitempty"`
	EndTime    time.Time `json:"end_time,omitempty"`
	// WaitSeconds is the queue wait; ElapsedSeconds the wall time so far.
	WaitSeconds      int64 `json:"wait_seconds"`
	ElapsedSeconds   int64 `json:"elapsed_seconds"`
	TimeLimitSeconds int64 `json:"time_limit_seconds"`

	// Expanded-view details.
	ReqCPUs   int     `json:"req_cpus"`
	AllocCPUs int     `json:"alloc_cpus"`
	ReqMemMB  int64   `json:"req_mem_mb"`
	GPUs      int     `json:"gpus"`
	GPUHours  float64 `json:"gpu_hours"`
	NodeList  string  `json:"node_list,omitempty"`
	ExitCode  int     `json:"exit_code"`
	WorkDir   string  `json:"work_dir,omitempty"`

	Efficiency EfficiencyView `json:"efficiency"`
	Warnings   []string       `json:"warnings,omitempty"`

	IsArrayTask bool   `json:"is_array_task,omitempty"`
	App         string `json:"app,omitempty"`
	SessionID   string `json:"session_id,omitempty"`
	OverviewURL string `json:"overview_url"`

	// rawID identifies the accounting record, for incremental refills.
	rawID slurm.JobID
}

// MyJobsResponse is the My Jobs API payload.
type MyJobsResponse struct {
	Jobs []JobRow `json:"jobs"`
	// Total is the row count before any filtering, for the charts.
	Total int `json:"total"`
	// Matched is the post-filter count before pagination; Offset echoes the
	// requested page start so the table can render pager controls.
	Matched int `json:"matched"`
	Offset  int `json:"offset"`
}

// jobRowFromSacct converts an accounting row to the API row shape.
func jobRowFromSacct(row *slurmcli.SacctRow, now time.Time, th efficiency.Thresholds) JobRow {
	jr := JobRow{
		rawID:     row.RawID,
		JobID:     row.JobID,
		Name:      row.Name,
		User:      row.User,
		Account:   row.Account,
		Partition: row.Partition,
		QOS:       row.QOS,
		State:     string(row.State),

		SubmitTime:       row.SubmitTime,
		StartTime:        row.StartTime,
		EndTime:          row.EndTime,
		ElapsedSeconds:   int64(row.Elapsed / time.Second),
		TimeLimitSeconds: int64(row.TimeLimit / time.Second),

		ReqCPUs:   row.ReqCPUs,
		AllocCPUs: row.AllocCPUs,
		ReqMemMB:  row.ReqMemMB,
		GPUs:      row.AllocTRES.GPUs,
		GPUHours:  row.GPUHours(),
		NodeList:  row.NodeList,
		ExitCode:  row.ExitCode,
		WorkDir:   row.WorkDir,

		IsArrayTask: row.IsArrayTask(),
		OverviewURL: "/job/" + row.JobID,
	}
	if row.NodeList == "None assigned" {
		jr.NodeList = ""
	}
	if row.State == slurm.StatePending {
		jr.Reason = string(row.Reason)
		if msg, ok := explainReason(row.Reason); ok {
			jr.ReasonHelp = msg
		}
		jr.WaitSeconds = int64(now.Sub(row.SubmitTime) / time.Second)
	} else if !row.StartTime.IsZero() {
		jr.WaitSeconds = int64(row.StartTime.Sub(row.SubmitTime) / time.Second)
	}
	jr.Efficiency = efficiencyView(efficiency.Compute(row))
	for _, warning := range efficiency.Warnings(row, th) {
		jr.Warnings = append(jr.Warnings, warning.Message)
	}
	if app, sess, ok := row.SessionInfo(); ok {
		jr.App, jr.SessionID = app, sess
	}
	return jr
}

// fetchUserJobs returns the table rows visible to the user (their own jobs
// plus their groups', §2.4 Privacy) in the request's time range. The cache
// holds fully converted rows — efficiency metrics and warning strings are the
// expensive part of this route, so each row is converted once per refill
// instead of once per request; filters and pagination then run over the
// cached slice.
//
// A relative range (24h … all) ends at the current instant, so it is kept as
// one snapshot per user and range that refreshMyJobs brings up to date. A
// custom range is fixed and keyed on its bounds.
func (s *Server) fetchUserJobs(r *http.Request, userName string, accounts []string) ([]JobRow, fetchMeta, error) {
	start, end, err := parseTimeRange(r, s.clock.Now())
	if err != nil {
		return nil, fetchMeta{}, err
	}
	rng := r.URL.Query().Get("range")
	if rng == "custom" {
		// Built without Sprintf: Sprintf boxes both ints per call.
		key := "myjobs:" + userName + ":" +
			strconv.FormatInt(start.Unix(), 10) + ":" + strconv.FormatInt(end.Unix(), 10)
		v, meta, err := s.fetchVia(r, srcDBD, key, s.cfg.TTLs.JobHistory, func(ctx context.Context) (any, error) {
			rows, err := s.dbdBk.Sacct(ctx, slurmcli.SacctOptions{
				Accounts: accounts, AllUsers: true,
				Start: start, End: end,
			})
			if err != nil {
				return nil, err
			}
			return sortedJobRows(rows, s.clock.Now()), nil
		})
		if err != nil {
			return nil, fetchMeta{}, err
		}
		return v.([]JobRow), meta, nil
	}
	if rng == "" {
		rng = "7d"
	}
	var span time.Duration // zero: the window has no start ("all")
	if !start.IsZero() {
		span = end.Sub(start)
	}
	key := "myjobs:" + userName + ":" + rng
	v, meta, err := s.fetchVia(r, srcDBD, key, myJobsSnapshotTTL, func(ctx context.Context) (any, error) {
		return s.refreshMyJobs(ctx, key, accounts, span)
	})
	if err != nil {
		return nil, fetchMeta{}, err
	}
	return v.(*myJobsSnapshot).rows, meta, nil
}

// myJobsSnapshotTTL is how long a relative-range snapshot is served without
// asking slurmdbd again: one second, the freshness the former per-second
// cache key gave. The table and charts requests of one page view still
// collapse onto a single refill.
const myJobsSnapshotTTL = time.Second

// myJobsSnapshot is the cached My Jobs table for one user and relative
// range: every row visible at asOf, in jobRowBefore order. A stored snapshot
// is never mutated; a refresh builds a new one.
type myJobsSnapshot struct {
	asOf     time.Time // the instant the rows describe: the last sacct's end
	fullAt   time.Time // when the last full sacct ran
	accounts []string  // the accounts the rows were selected by
	rows     []JobRow
}

// refreshMyJobs brings the snapshot under key up to the current instant.
// While the retained snapshot's last full sacct is younger than the
// JobHistory TTL it asks slurmdbd only for the jobs that can have changed
// since then — every job with no end time or one at or after asOf, which is
// what sacct -S asOf returns — and merges them in. Otherwise, or when the
// user's accounts changed, it refills from a full sacct, which also picks up
// accounting records loaded late. Both
// paths yield the rows a full sacct at this instant would (DESIGN.md,
// "Incremental My Jobs refill").
func (s *Server) refreshMyJobs(ctx context.Context, key string, accounts []string, span time.Duration) (*myJobsSnapshot, error) {
	now := s.clock.Now()
	var start time.Time
	if span > 0 {
		start = now.Add(-span)
	}
	prev, _ := s.cache.Peek(key)
	if snap, ok := prev.(*myJobsSnapshot); ok && now.Sub(snap.fullAt) < s.cfg.TTLs.JobHistory &&
		!snap.asOf.Before(start) && !now.Before(snap.asOf) && slices.Equal(snap.accounts, accounts) {
		delta, err := s.dbdBk.Sacct(ctx, slurmcli.SacctOptions{
			Accounts: accounts, AllUsers: true,
			Start: snap.asOf, End: now,
		})
		if err != nil {
			return nil, err
		}
		return &myJobsSnapshot{asOf: now, fullAt: snap.fullAt, accounts: accounts,
			rows: mergeJobRows(snap.rows, sortedJobRows(delta, now), start)}, nil
	}
	rows, err := s.dbdBk.Sacct(ctx, slurmcli.SacctOptions{
		Accounts: accounts, AllUsers: true,
		Start: start, End: now,
	})
	if err != nil {
		return nil, err
	}
	return &myJobsSnapshot{asOf: now, fullAt: now, accounts: accounts, rows: sortedJobRows(rows, now)}, nil
}

// sortedJobRows converts accounting rows to table rows in jobRowBefore
// order.
func sortedJobRows(rows []slurmcli.SacctRow, now time.Time) []JobRow {
	th := efficiency.DefaultThresholds()
	converted := make([]JobRow, len(rows))
	for i := range rows {
		converted[i] = jobRowFromSacct(&rows[i], now, th)
	}
	sort.Slice(converted, func(i, j int) bool {
		return jobRowBefore(&converted[i], &converted[j])
	})
	return converted
}

// jobRowBefore is the table's one total order: newest submission first (the
// default sort), then ascending raw job ID. Every refill path sorts by it,
// so an incremental refill lays rows out exactly as a full one does.
func jobRowBefore(a, b *JobRow) bool {
	if !a.SubmitTime.Equal(b.SubmitTime) {
		return a.SubmitTime.After(b.SubmitTime)
	}
	return a.rawID < b.rawID
}

// mergeJobRows folds sorted delta rows into a retained snapshot without
// modifying it: a delta row replaces the retained row with the same raw job
// ID, retained rows that ended before the window start leave, and the result
// keeps jobRowBefore order. slurmdbd compares end times against the start
// to the second, so the cutoff is truncated the same way.
func mergeJobRows(retained, delta []JobRow, start time.Time) []JobRow {
	replaced := make(map[slurm.JobID]struct{}, len(delta))
	for i := range delta {
		replaced[delta[i].rawID] = struct{}{}
	}
	cutoff := start.Truncate(time.Second)
	out := make([]JobRow, 0, len(retained)+len(delta))
	next := 0
	for i := range retained {
		row := &retained[i]
		if _, ok := replaced[row.rawID]; ok {
			continue
		}
		if !row.EndTime.IsZero() && row.EndTime.Before(cutoff) {
			continue
		}
		for next < len(delta) && jobRowBefore(&delta[next], row) {
			out = append(out, delta[next])
			next++
		}
		out = append(out, *row)
	}
	return append(out, delta[next:]...)
}

func (s *Server) handleMyJobs(w http.ResponseWriter, r *http.Request) {
	user, err := s.currentUser(r)
	if err != nil {
		writeError(w, err)
		return
	}
	rows, meta, err := s.fetchUserJobs(r, user.Name, user.Accounts)
	if err != nil {
		writeFetchError(w, err)
		return
	}

	s.serveRendered(w, r, meta, user.Name, func() (any, error) {
		// Optional filters mirroring the page's controls.
		q := r.URL.Query()
		stateFilter := strings.ToUpper(q.Get("state"))
		userFilter := q.Get("user")
		accountFilter := q.Get("account")
		onlyMine := q.Get("mine") == "1"

		resp := MyJobsResponse{Total: len(rows)}
		for i := range rows {
			row := &rows[i]
			if onlyMine && row.User != user.Name {
				continue
			}
			if userFilter != "" && row.User != userFilter {
				continue
			}
			if accountFilter != "" && row.Account != accountFilter {
				continue
			}
			if stateFilter != "" && row.State != stateFilter {
				continue
			}
			resp.Jobs = append(resp.Jobs, *row)
		}
		resp.Matched = len(resp.Jobs)

		// Pagination: DataTables-style limit/offset keeps large histories from
		// shipping megabytes per request.
		offset, limit := 0, 0
		if v := q.Get("offset"); v != "" {
			offset, err = strconv.Atoi(v)
			if err != nil || offset < 0 {
				return nil, fmt.Errorf("%w: bad offset %q", errBadRequest, v)
			}
		}
		if v := q.Get("limit"); v != "" {
			limit, err = strconv.Atoi(v)
			if err != nil || limit <= 0 {
				return nil, fmt.Errorf("%w: bad limit %q", errBadRequest, v)
			}
		}
		if offset > len(resp.Jobs) {
			offset = len(resp.Jobs)
		}
		resp.Offset = offset
		resp.Jobs = resp.Jobs[offset:]
		if limit > 0 && len(resp.Jobs) > limit {
			resp.Jobs = resp.Jobs[:limit]
		}
		return resp, nil
	})
}

// handleMyJobsExport streams the (filtered) My Jobs table as CSV — the
// DataTables-style export next to the §3.4 account export, with the same
// scope and filters as the JSON route.
func (s *Server) handleMyJobsExport(w http.ResponseWriter, r *http.Request) {
	user, err := s.currentUser(r)
	if err != nil {
		writeError(w, err)
		return
	}
	rows, meta, err := s.fetchUserJobs(r, user.Name, user.Accounts)
	if err != nil {
		writeFetchError(w, err)
		return
	}
	q := r.URL.Query()
	stateFilter := strings.ToUpper(q.Get("state"))
	onlyMine := q.Get("mine") == "1"

	setDegradedHeader(w, meta)
	setPrivateCache(w.Header())
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s-jobs-%s.csv", s.cfg.ClusterName, user.Name))
	cw := csv.NewWriter(w)
	_ = cw.Write([]string{"job_id", "name", "user", "account", "partition", "qos",
		"state", "submit", "start", "end", "wait_seconds", "elapsed_seconds",
		"req_cpus", "req_mem_mb", "gpus", "gpu_hours",
		"time_eff_pct", "cpu_eff_pct", "mem_eff_pct", "exit_code"})
	fmtTime := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339)
	}
	fmtEff := func(v *float64) string {
		if v == nil {
			return ""
		}
		return strconv.FormatFloat(*v, 'f', 1, 64)
	}
	for i := range rows {
		row := &rows[i]
		if onlyMine && row.User != user.Name {
			continue
		}
		if stateFilter != "" && row.State != stateFilter {
			continue
		}
		_ = cw.Write([]string{
			row.JobID, row.Name, row.User, row.Account, row.Partition, row.QOS,
			row.State, fmtTime(row.SubmitTime), fmtTime(row.StartTime), fmtTime(row.EndTime),
			strconv.FormatInt(row.WaitSeconds, 10),
			strconv.FormatInt(row.ElapsedSeconds, 10),
			strconv.Itoa(row.ReqCPUs),
			strconv.FormatInt(row.ReqMemMB, 10),
			strconv.Itoa(row.GPUs),
			strconv.FormatFloat(row.GPUHours, 'f', 2, 64),
			fmtEff(row.Efficiency.TimePercent),
			fmtEff(row.Efficiency.CPUPercent),
			fmtEff(row.Efficiency.MemoryPercent),
			strconv.Itoa(row.ExitCode),
		})
	}
	cw.Flush()
}

// --- My Jobs charts (§4.2) --------------------------------------------------

// UserStateBar is one stacked bar of the job-state distribution chart:
// a user's job counts by state.
type UserStateBar struct {
	User   string         `json:"user"`
	Total  int            `json:"total"`
	States map[string]int `json:"states"`
}

// UserGPUHours is one bar of the GPU-hour distribution chart.
type UserGPUHours struct {
	User     string  `json:"user"`
	GPUHours float64 `json:"gpu_hours"`
}

// ChartsResponse is the My Jobs charts API payload.
type ChartsResponse struct {
	StateDistribution []UserStateBar `json:"state_distribution"`
	GPUHours          []UserGPUHours `json:"gpu_hours"`
}

func (s *Server) handleMyJobsCharts(w http.ResponseWriter, r *http.Request) {
	user, err := s.currentUser(r)
	if err != nil {
		writeError(w, err)
		return
	}
	rows, meta, err := s.fetchUserJobs(r, user.Name, user.Accounts)
	if err != nil {
		writeFetchError(w, err)
		return
	}

	s.serveRendered(w, r, meta, user.Name, func() (any, error) {
		states := make(map[string]*UserStateBar)
		gpu := make(map[string]float64)
		for i := range rows {
			row := &rows[i]
			bar := states[row.User]
			if bar == nil {
				bar = &UserStateBar{User: row.User, States: make(map[string]int)}
				states[row.User] = bar
			}
			bar.States[row.State]++
			bar.Total++
			gpu[row.User] += row.GPUHours
		}
		resp := ChartsResponse{}
		for _, bar := range states {
			resp.StateDistribution = append(resp.StateDistribution, *bar)
		}
		sort.Slice(resp.StateDistribution, func(i, j int) bool {
			if resp.StateDistribution[i].Total != resp.StateDistribution[j].Total {
				return resp.StateDistribution[i].Total > resp.StateDistribution[j].Total
			}
			return resp.StateDistribution[i].User < resp.StateDistribution[j].User
		})
		for u, hours := range gpu {
			if hours > 0 {
				resp.GPUHours = append(resp.GPUHours, UserGPUHours{User: u, GPUHours: hours})
			}
		}
		sort.Slice(resp.GPUHours, func(i, j int) bool {
			if resp.GPUHours[i].GPUHours != resp.GPUHours[j].GPUHours {
				return resp.GPUHours[i].GPUHours > resp.GPUHours[j].GPUHours
			}
			return resp.GPUHours[i].User < resp.GPUHours[j].User
		})
		return resp, nil
	})
}

// --- Job Performance Metrics (§5) --------------------------------------------

// JobPerfResponse is the aggregate metrics payload: the summary cards of
// the Job Performance Metrics app.
type JobPerfResponse struct {
	RangeStart time.Time `json:"range_start,omitempty"`
	RangeEnd   time.Time `json:"range_end"`

	TotalJobs        int     `json:"total_jobs"`
	CompletedJobs    int     `json:"completed_jobs"`
	FailedJobs       int     `json:"failed_jobs"`
	AvgWaitSeconds   float64 `json:"avg_wait_seconds"`
	MeanDurationSecs float64 `json:"mean_duration_seconds"`
	TotalWallSeconds int64   `json:"total_wall_seconds"`
	TotalCPUHours    float64 `json:"total_cpu_hours"`
	TotalGPUHours    float64 `json:"total_gpu_hours"`

	AvgTimeEfficiency   float64 `json:"avg_time_efficiency"`
	AvgCPUEfficiency    float64 `json:"avg_cpu_efficiency"`
	AvgMemoryEfficiency float64 `json:"avg_memory_efficiency"`
}

func (s *Server) handleJobPerf(w http.ResponseWriter, r *http.Request) {
	user, err := s.currentUser(r)
	if err != nil {
		writeError(w, err)
		return
	}
	now := s.clock.Now()
	start, end, err := parseTimeRange(r, now)
	if err != nil {
		writeError(w, err)
		return
	}
	// Job Performance Metrics covers the user's own terminal jobs, summed
	// from the rollup pipeline over the bucket-aligned window. Queued and
	// running work has no end time yet and so no bucket; the queue views
	// cover it.
	if start.IsZero() {
		minEnd, _, ok, berr := s.rollupBounds(r, slurm.RollupScopeUser, user.Name)
		if berr != nil {
			writeFetchError(w, berr)
			return
		}
		if !ok {
			writeJSON(w, http.StatusOK, JobPerfResponse{RangeStart: start, RangeEnd: end})
			return
		}
		start = time.Unix(minEnd, 0).UTC()
	}
	series, meta, err := s.fetchRollup(r, rollupQuery{
		scope: slurm.RollupScopeUser, name: user.Name, start: start, end: end,
	})
	if err != nil {
		writeFetchError(w, err)
		return
	}
	s.serveRendered(w, r, meta, user.Name, func() (any, error) {
		return aggregateJobPerf(start, end, series), nil
	})
}

// aggregateJobPerf folds a rollup window into the summary metrics. The
// efficiency averages come from the store's exact fixed-point sums, so they
// equal a per-job mean recomputed from accounting rows.
func aggregateJobPerf(start, end time.Time, sr rollupSeries) JobPerfResponse {
	resp := JobPerfResponse{RangeStart: start, RangeEnd: end}
	var total slurm.RollupAgg
	for i := range sr.Rows {
		total.Add(&sr.Rows[i].RollupAgg)
	}
	resp.TotalJobs = int(total.Jobs)
	resp.CompletedJobs = int(total.Completed)
	resp.FailedJobs = int(total.Failed)
	if total.Started > 0 {
		resp.AvgWaitSeconds = float64(total.WaitSec) / float64(total.Started)
		resp.MeanDurationSecs = float64(total.WallSec) / float64(total.Started)
	}
	resp.TotalWallSeconds = total.WallSec
	resp.TotalCPUHours = float64(total.CPUSec) / 3600
	resp.TotalGPUHours = float64(total.GPUSec) / 3600
	if v := effmath.FromMicro(total.TimeEffMicro, total.TimeEffN); v >= 0 {
		resp.AvgTimeEfficiency = v
	}
	if v := effmath.FromMicro(total.CPUEffMicro, total.CPUEffN); v >= 0 {
		resp.AvgCPUEfficiency = v
	}
	if v := effmath.FromMicro(total.MemEffMicro, total.MemEffN); v >= 0 {
		resp.AvgMemoryEfficiency = v
	}
	return resp
}
