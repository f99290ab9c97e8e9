package slurm

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"
)

// DBD simulates slurmdbd, Slurm's accounting database daemon. The controller
// streams job events into it; sacct-style queries read from it. Keeping the
// two daemons separate matters for reproducing the paper's load argument:
// history queries (sacct) are cheap for the controller because they never
// touch it.
type DBD struct {
	mu     sync.RWMutex
	jobs   map[JobID]*Job
	order  []JobID           // ascending submit time (ties broken by ID)
	arrays map[JobID][]JobID // array job ID → the IDs of its tasks
	assocs map[AssocKey]*Association
	stats  *DaemonStats

	// rollups holds the incremental time-bucketed aggregates maintained as
	// jobs reach a terminal state (see rollup.go). Guarded by mu.
	rollups rollupStore

	// healthGate simulates accounting-database outages; sacct-style queries
	// are gated at the command surface (slurmcli.SimRunner).
	healthGate healthGate
}

// NewDBD returns an empty accounting database.
func NewDBD() *DBD {
	return &DBD{
		jobs:    make(map[JobID]*Job),
		arrays:  make(map[JobID][]JobID),
		assocs:  make(map[AssocKey]*Association),
		stats:   NewDaemonStats("slurmdbd"),
		rollups: newRollupStore(),
	}
}

// Stats exposes the daemon's RPC counters.
func (d *DBD) Stats() *DaemonStats { return d.stats }

// AddAssociation registers an association record. Account-level records have
// an empty User. Called during cluster construction.
func (d *DBD) AddAssociation(a Association) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cp := a
	d.assocs[a.Key()] = &cp
}

// recordJob upserts the accounting copy of a job. Internal streaming from
// the controller: not counted as a client RPC.
func (d *DBD) recordJob(j *Job) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old, exists := d.jobs[j.ID]
	if !exists {
		d.addArrayTask(j)
		d.order = append(d.order, j.ID)
		// Keep order sorted; submissions arrive roughly in order so the
		// common case is an append.
		for i := len(d.order) - 1; i > 0 && jobCmp(j, d.jobs[d.order[i-1]]) < 0; i-- {
			d.order[i-1], d.order[i] = d.order[i], d.order[i-1]
		}
	}
	// A job folds into the rollups exactly once: on its transition into a
	// terminal state. Requeued jobs re-enter as non-terminal and fold again
	// when they finish for real.
	if (old == nil || !old.State.Terminal()) && j.State.Terminal() && !j.EndTime.IsZero() {
		d.rollups.ingest(j)
	}
	d.jobs[j.ID] = j.Clone()
}

// addArrayTask indexes a newly stored record under its array, if any.
// Caller holds d.mu.
func (d *DBD) addArrayTask(j *Job) {
	if j.IsArrayTask() {
		d.arrays[j.ArrayJobID] = append(d.arrays[j.ArrayJobID], j.ID)
	}
}

// chargeUsage accumulates finished-job usage onto the user and account
// associations. Internal streaming from the controller.
func (d *DBD) chargeUsage(j *Job, now time.Time) {
	cpuHours := j.CPUTimeUsed(now).Hours()
	gpuHours := j.GPUHoursUsed(now)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, key := range []AssocKey{
		{Account: j.Account, User: j.User},
		{Account: j.Account},
	} {
		a := d.assocs[key]
		if a == nil {
			a = &Association{Account: key.Account, User: key.User}
			d.assocs[key] = a
		}
		a.CPUTimeUsed += cpuHours
		a.GPUHoursUsed += gpuHours
	}
}

// Association returns a copy of the association for the key, or nil.
func (d *DBD) Association(key AssocKey) *Association {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if a := d.assocs[key]; a != nil {
		return a.Clone()
	}
	return nil
}

// accountView returns what a scheduling pass needs of the account-level
// association: its CPU limit and fair-share penalty, read in place under
// the read lock instead of cloned. An unknown account has neither.
func (d *DBD) accountView(account string) acctView {
	d.mu.RLock()
	defer d.mu.RUnlock()
	a := d.assocs[AssocKey{Account: account}]
	if a == nil {
		return acctView{}
	}
	return acctView{cpuLimit: a.GrpCPULimit, penalty: fairSharePenalty(a.CPUTimeUsed)}
}

// fairSharePenalty derives the (negative) fair-share factor from an
// account's accumulated core-hours — heavy accounts slowly lose ground to
// light ones, a simplified version of Slurm's fair-share.
func fairSharePenalty(cpuHours float64) int64 {
	return -min(int64(cpuHours/200), 400) // one point per 200 core-hours
}

// Associations returns copies of all associations, account-level first,
// sorted by (account, user). Counted as a DBD usage RPC.
func (d *DBD) Associations() []*Association {
	d.stats.Record(RPCUsageRollup)
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*Association, 0, len(d.assocs))
	for _, a := range d.assocs {
		out = append(out, a.Clone())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Account != out[j].Account {
			return out[i].Account < out[j].Account
		}
		return out[i].User < out[j].User
	})
	return out
}

// JobFilter selects accounting records, mirroring sacct's main options.
// Zero-valued fields match everything.
type JobFilter struct {
	Users    []string
	Accounts []string
	States   []JobState
	// Start/End select jobs whose [SubmitTime, EndTime-or-now] interval
	// overlaps [Start, End], following sacct -S/-E semantics.
	Start     time.Time
	End       time.Time
	Partition string
	// JobIDs and Tasks select records by ID the way sacct -j reads its
	// list: a record matches when any entry names it. A JobIDs entry N
	// names job N and every task of array N; a Tasks entry names one task.
	JobIDs []JobID
	Tasks  []ArrayTask
	// Limit caps the number of returned records (most recent first when set).
	Limit int
}

func (f *JobFilter) matches(j *Job, now time.Time) bool {
	if len(f.Users) > 0 && !containsString(f.Users, j.User) {
		return false
	}
	if len(f.Accounts) > 0 && !containsString(f.Accounts, j.Account) {
		return false
	}
	if f.Partition != "" && j.Partition != f.Partition {
		return false
	}
	if len(f.States) > 0 {
		ok := false
		for _, s := range f.States {
			if j.State == s {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if (len(f.JobIDs) > 0 || len(f.Tasks) > 0) && !f.names(j) {
		return false
	}
	if !f.Start.IsZero() || !f.End.IsZero() {
		jobEnd := j.EndTime
		if jobEnd.IsZero() {
			jobEnd = now
		}
		if !f.End.IsZero() && j.SubmitTime.After(f.End) {
			return false
		}
		if !f.Start.IsZero() && jobEnd.Before(f.Start) {
			return false
		}
	}
	return true
}

// names reports whether an entry of JobIDs or Tasks names the job.
func (f *JobFilter) names(j *Job) bool {
	for _, id := range f.JobIDs {
		if j.ID == id || (j.IsArrayTask() && j.ArrayJobID == id) {
			return true
		}
	}
	if j.IsArrayTask() {
		for _, t := range f.Tasks {
			if t.ArrayJobID == j.ArrayJobID && t.TaskID == j.ArrayTaskID {
				return true
			}
		}
	}
	return false
}

// ArrayTask names one task of a job array, sacct's "N_T".
type ArrayTask struct {
	ArrayJobID JobID
	TaskID     int
}

func containsString(haystack []string, needle string) bool {
	for _, s := range haystack {
		if s == needle {
			return true
		}
	}
	return false
}

// jobCmp is d.order's ordering: submit time ascending, ties by job ID.
func jobCmp(a, b *Job) int {
	if c := a.SubmitTime.Compare(b.SubmitTime); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// sortByJobCmp sorts ids, all stored, into d.order's ordering. Caller
// holds d.mu.
func (d *DBD) sortByJobCmp(ids []JobID) {
	slices.SortFunc(ids, func(a, b JobID) int { return jobCmp(d.jobs[a], d.jobs[b]) })
}

// Jobs returns copies of the accounting records matching the filter,
// ordered by submit time ascending (or most-recent-first truncated to Limit
// when Limit > 0). Counted as a DBD_GET_JOBS RPC — the sacct path.
func (d *DBD) Jobs(f JobFilter, now time.Time) []*Job {
	var out []*Job
	_ = d.EachJob(f, now, func(j *Job) error {
		out = append(out, j.Clone())
		return nil
	})
	return out
}

// EachJob calls fn for each accounting record matching the filter, in the
// order Jobs returns them, and stops at the first error fn returns. Counted
// as one DBD_GET_JOBS RPC. fn runs under the read lock: it may read the job
// but must neither keep nor change it. Stored records are replaced on every
// write (recordJob, Backfill) and never changed in place, so a reader never
// sees a record half-written.
//
// With JobIDs or Tasks set the candidates come from the by-ID map and the
// array index instead of a scan of every record, the way slurmdbd answers
// sacct -j from its keys.
func (d *DBD) EachJob(f JobFilter, now time.Time, fn func(*Job) error) error {
	d.stats.Record(RPCSacct)
	d.mu.RLock()
	defer d.mu.RUnlock()
	ids := d.order
	if len(f.JobIDs) > 0 || len(f.Tasks) > 0 {
		ids = d.byID(&f)
	}
	if f.Limit > 0 {
		// Newest first, stopping at the limit.
		n := 0
		for i := len(ids) - 1; i >= 0 && n < f.Limit; i-- {
			if j := d.jobs[ids[i]]; f.matches(j, now) {
				if err := fn(j); err != nil {
					return err
				}
				n++
			}
		}
		return nil
	}
	for _, id := range ids {
		if j := d.jobs[id]; f.matches(j, now) {
			if err := fn(j); err != nil {
				return err
			}
		}
	}
	return nil
}

// byID returns the IDs of the stored records f's JobIDs and Tasks name,
// each once, in d.order's order. Caller holds d.mu.
func (d *DBD) byID(f *JobFilter) []JobID {
	out := make([]JobID, 0, len(f.JobIDs)+len(f.Tasks))
	for _, id := range f.JobIDs {
		if d.jobs[id] != nil {
			out = append(out, id)
		}
		out = append(out, d.arrays[id]...)
	}
	for _, t := range f.Tasks {
		for _, id := range d.arrays[t.ArrayJobID] {
			if d.jobs[id].ArrayTaskID == t.TaskID {
				out = append(out, id)
			}
		}
	}
	d.sortByJobCmp(out)
	return slices.Compact(out) // equal IDs sort next to each other
}

// Job returns the accounting record for one job, or nil when unknown.
// Counted as a DBD_GET_JOBS RPC.
func (d *DBD) Job(id JobID) *Job {
	d.stats.Record(RPCSacct)
	d.mu.RLock()
	defer d.mu.RUnlock()
	if j := d.jobs[id]; j != nil {
		return j.Clone()
	}
	return nil
}

// JobCount returns the number of stored accounting records.
func (d *DBD) JobCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.jobs)
}
