package slurm

import (
	"cmp"
	"slices"
	"time"
)

// schedQueueDepth caps how many placement attempts one scheduling pass
// makes, mirroring slurmctld's default_queue_depth / bf_max_job_test.
const schedQueueDepth = 200

// Tick advances the simulation to the clock's current time: it completes
// jobs whose run time has elapsed, fails jobs on downed nodes, runs one
// scheduling pass over the pending queue, refreshes node load figures, and
// purges finished jobs older than the retention window.
//
// Tick is cheap enough to call after every clock advance; the dashboard
// benchmarks call it from a driver loop to simulate a live cluster.
func (c *Controller) Tick() {
	now := c.clock.Now()
	var done []*Job

	c.mu.Lock()
	// 0. Enter/leave scheduled maintenance windows; complete power-up and
	// reboot transitions whose boot delay has elapsed.
	c.applyMaintenanceLocked(now)
	c.applyPowerLocked(now)
	// Steps 1-3 share one walk of the queue. Node failures (1) are applied
	// as the walk meets them; completions (2) are collected and applied
	// after it, so every failure still precedes every completion, each in
	// queue order. What is left pending or running feeds the pass (3).
	p := &c.pass
	p.reset(now)
	anyDown := false
	for _, n := range c.nodes {
		if n.State == NodeDown {
			anyDown = true
			break
		}
	}
	ending := p.ending[:0]
	for _, id := range c.jobOrder {
		j := c.jobs[id]
		if j == nil {
			continue
		}
		switch {
		case j.State == StatePending:
			p.pending = append(p.pending, j)
		case j.State != StateRunning && j.State != StateSuspended:
			// Finished: nothing to do.
		case anyDown && c.onDownNodeLocked(j):
			// 1. Fail jobs (running or suspended) whose nodes went down.
			c.freeJobResourcesLocked(j)
			j.State = StateNodeFail
			j.Reason = ReasonNone
			j.EndTime = now
			j.ExitCode = 1
			c.emitJobEvent(EventNodeFail, j, now)
			done = append(done, j.Clone())
		case j.State == StateSuspended:
			// Holds its nodes but neither completes nor counts as running.
		default:
			if end, _ := j.scheduledEnd(); !now.Before(end) {
				ending = append(ending, j)
			} else {
				c.countRunningLocked(p, j)
			}
		}
	}
	// 2. Complete jobs whose run time elapsed.
	for _, j := range ending {
		end, state := j.scheduledEnd()
		c.freeJobResourcesLocked(j)
		j.State = state
		j.Reason = ReasonNone
		j.EndTime = end // exact end, not tick time: deterministic accounting
		j.ExitCode = j.Profile.ExitCode
		if state == StateTimeout || state == StateOutOfMemory {
			j.ExitCode = 1
		}
		c.emitJobEvent(stateEventKind(state), j, end)
		done = append(done, j.Clone())
	}
	p.ending = ending
	// 3. Schedule the pending queue.
	c.scheduleLocked(p)
	// The table's storage outlives the pass; its job pointers must not keep
	// purged jobs alive.
	clear(p.pending)
	clear(p.ending)
	clear(p.victims[:cap(p.victims)])
	// 4. Refresh node CPU load from running jobs' utilization profiles.
	c.refreshNodeLoadLocked()
	// 5. Purge finished jobs past the retention window.
	c.purgeLocked(now)
	c.mu.Unlock()

	for _, j := range done {
		c.dbd.recordJob(j)
		c.dbd.chargeUsage(j, now)
	}
	// Seal rollup buckets the clock has moved fully past and evict buckets
	// older than their retention (cascade compaction, see rollup.go).
	c.dbd.AdvanceRollups(now)
}

// onDownNodeLocked reports whether any of the job's nodes is down. Caller
// holds c.mu.
func (c *Controller) onDownNodeLocked(j *Job) bool {
	for _, name := range j.Nodes {
		if n := c.nodes[name]; n != nil && n.State == NodeDown {
			return true
		}
	}
	return false
}

// scheduledEnd returns when a running job will finish and in which state.
// A profile whose memory utilization exceeds the request models a job that
// outgrows its allocation: the kernel OOM-kills it partway through. Time
// spent suspended pushes the end out.
func (j *Job) scheduledEnd() (time.Time, JobState) {
	run := j.Profile.ActualDuration
	state := j.Profile.terminalState()
	switch {
	case j.Profile.MemUtilization > 1.0:
		if run <= 0 || run >= j.TimeLimit {
			run = j.TimeLimit / 2
		}
		state = StateOutOfMemory
	case run <= 0 || run >= j.TimeLimit:
		run = j.TimeLimit
		state = StateTimeout
	}
	return j.StartTime.Add(run + j.SuspendTotal), state
}

// noMaint is the maintenance start of a node that no unfinished window
// covers: later than any job could end, so it blocks nothing.
var noMaint = time.Unix(1<<62, 0)

// schedPass is the table one scheduling pass reads instead of resolving
// nodes, maintenance windows and associations for every pending job, the
// way slurmctld builds its node bitmaps once per scheduling cycle. Tick
// fills the queue half while it walks the jobs; scheduleLocked builds the
// rest and hands the table to every placement helper. The Controller keeps
// one so that each pass reuses the storage of the last.
type schedPass struct {
	now     time.Time
	pending []*Job
	ending  []*Job // Tick's completions, applied after its walk

	// Running work, counted once per pass and bumped as jobs start.
	runningPerUserQOS map[[2]string]int // QOS with a MaxJobsPerUser only
	cpusInUse         map[string]int    // per account
	preemptable       int               // running jobs in a preemptable QOS

	accts map[string]acctView // per account, read on first use

	// The earliest Start among windows that have not ended: of whole-cluster
	// windows (noMaint when none), and per node named by a window.
	maintAll    time.Time
	maintByNode map[string]time.Time

	parts []passPart // one per partition, in partOrder, built on first use
	// gen counts the pass's starts. A requeue frees room only for the start
	// it makes room for, so every change of a node's free TRES bumps it.
	gen int

	// Buffers placement and preemption reuse.
	chosen  []string
	victims []*Job
	seen    map[JobID]bool
}

// acctView is what the pass needs of an account-level association.
type acctView struct {
	cpuLimit int   // GrpCPULimit; zero means unlimited
	penalty  int64 // fairSharePenalty of the account's usage
}

// passPart is one partition's nodes as the pass sees them. Which nodes are
// schedulable cannot change within a pass: starts and requeues only move
// allocations, and a woken node stays unschedulable until it has booted.
type passPart struct {
	part   *Partition
	built  bool
	nodes  []passNode // schedulable nodes, in name order
	asleep []passNode // powered-down nodes, in name order
	// latestMaint is the latest maintenance start over nodes; noMaint when
	// some schedulable node has no window ahead of it.
	latestMaint time.Time
	// maxFree is the component-wise maximum free TRES over nodes as of pass
	// generation maxFreeGen (see freeBound).
	maxFree    TRES
	maxFreeGen int
}

// passNode is one node and the earliest Start of an unfinished window
// covering it (noMaint when none). A job of time limit L is blocked on the
// node exactly when that start is before now+L: the job's [now, now+L)
// would overlap the window.
type passNode struct {
	n     *Node
	maint time.Time
}

// reset starts a pass at now. Caller holds c.mu.
func (p *schedPass) reset(now time.Time) {
	if p.seen == nil {
		p.runningPerUserQOS = make(map[[2]string]int)
		p.cpusInUse = make(map[string]int)
		p.accts = make(map[string]acctView)
		p.maintByNode = make(map[string]time.Time)
		p.seen = make(map[JobID]bool)
	}
	clear(p.runningPerUserQOS)
	clear(p.cpusInUse)
	clear(p.accts)
	p.now = now
	p.pending = p.pending[:0]
	p.preemptable = 0
	p.gen = 0
}

// countRunningLocked adds a running job to the pass's usage counts. Caller
// holds c.mu.
func (c *Controller) countRunningLocked(p *schedPass, j *Job) {
	p.cpusInUse[j.Account] += j.AllocTRES.CPUs
	if q := c.qos[j.QOS]; q != nil {
		if q.MaxJobsPerUser > 0 {
			p.runningPerUserQOS[[2]string{j.User, j.QOS}]++
		}
		if q.Preemptable {
			p.preemptable++
		}
	}
}

// account returns the account's view, reading the association on first use
// in the pass.
func (p *schedPass) account(d *DBD, account string) acctView {
	v, ok := p.accts[account]
	if !ok {
		v = d.accountView(account)
		p.accts[account] = v
	}
	return v
}

// beginPlacementLocked readies the placement half of the table: it folds
// the maintenance windows into maintAll and maintByNode and leaves every
// partition's nodes to be resolved on first use. Caller holds c.mu.
func (c *Controller) beginPlacementLocked(p *schedPass) {
	p.maintAll = noMaint
	clear(p.maintByNode)
	for i := range c.maintWindows {
		w := &c.maintWindows[i]
		if !p.now.Before(w.End) {
			continue // over: blocks nothing from now on
		}
		if len(w.Nodes) == 0 {
			if w.Start.Before(p.maintAll) {
				p.maintAll = w.Start
			}
			continue
		}
		for _, name := range w.Nodes {
			if t, ok := p.maintByNode[name]; !ok || w.Start.Before(t) {
				p.maintByNode[name] = w.Start
			}
		}
	}
	if len(p.parts) != len(c.partOrder) {
		p.parts = make([]passPart, len(c.partOrder))
	}
	for i, name := range c.partOrder {
		p.parts[i].part = c.partitions[name]
		p.parts[i].built = false
	}
}

// partLocked returns the pass's table for part, resolving its nodes on
// first use. Caller holds c.mu.
func (c *Controller) partLocked(p *schedPass, part *Partition) *passPart {
	var pp *passPart
	for i := range p.parts {
		if p.parts[i].part == part {
			pp = &p.parts[i]
			break
		}
	}
	if pp.built {
		return pp
	}
	pp.built = true
	pp.nodes, pp.asleep = pp.nodes[:0], pp.asleep[:0]
	pp.latestMaint = time.Time{}
	pp.maxFreeGen = -1
	for _, name := range part.Nodes {
		n := c.nodes[name]
		if n == nil {
			continue
		}
		e := passNode{n: n, maint: p.maintAll}
		if len(p.maintByNode) > 0 {
			if t, ok := p.maintByNode[name]; ok && t.Before(e.maint) {
				e.maint = t
			}
		}
		switch {
		case n.Schedulable():
			pp.nodes = append(pp.nodes, e)
			if e.maint.After(pp.latestMaint) {
				pp.latestMaint = e.maint
			}
		case n.PoweredDown:
			pp.asleep = append(pp.asleep, e)
		}
	}
	return pp
}

// freeBound returns the component-wise maximum free TRES over the
// partition's schedulable nodes, recomputed when a start (and the requeue
// before it, if any) has moved allocations since it was last taken.
func (p *schedPass) freeBound(pp *passPart) TRES {
	if pp.maxFreeGen != p.gen {
		var m TRES
		for _, e := range pp.nodes {
			f := e.n.Free()
			m.CPUs = max(m.CPUs, f.CPUs)
			m.MemMB = max(m.MemMB, f.MemMB)
			m.GPUs = max(m.GPUs, f.GPUs)
		}
		pp.maxFree, pp.maxFreeGen = m, p.gen
	}
	return pp.maxFree
}

// scheduleLocked runs one priority-ordered scheduling pass with simple
// backfill: the highest-priority job that cannot start is marked Resources
// (it is "next in line"), and lower-priority jobs that do fit are started
// anyway, mirroring Slurm's backfill scheduler in the absence of future
// reservations. Tick has filled p's pending queue and running counts.
// Caller holds c.mu.
func (c *Controller) scheduleLocked(p *schedPass) {
	pending := p.pending
	if len(pending) == 0 {
		return
	}
	now := p.now
	c.beginPlacementLocked(p)

	// Refresh priorities (age factor grows as jobs wait) and sort.
	for _, j := range pending {
		j.Priority = c.priorityLocked(j, now) + p.account(c.dbd, j.Account).penalty
	}
	slices.SortFunc(pending, func(a, b *Job) int {
		if a.Priority != b.Priority {
			return cmp.Compare(b.Priority, a.Priority)
		}
		if c := a.SubmitTime.Compare(b.SubmitTime); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})

	// Like slurmctld's default_queue_depth, bound the expensive part of the
	// pass: placement attempts. Cheap gating checks (limits, holds,
	// dependencies) still run for the whole queue so limit-blocked jobs at
	// the head never starve placeable jobs behind them.
	attempts := 0

	blockedOnResources := false
	for _, j := range pending {
		if attempts >= schedQueueDepth {
			break
		}
		// Gating checks that leave the job pending with a descriptive reason.
		if j.Reason == ReasonJobHeldUser {
			continue
		}
		if !j.BeginTime.IsZero() && j.BeginTime.After(now) {
			j.Reason = ReasonBeginTime
			continue
		}
		if j.Dependency != 0 {
			dep := c.jobs[j.Dependency]
			if dep == nil {
				// Dependency aged out of controller memory; consult accounting.
				dep = c.dbd.Job(j.Dependency)
			}
			if dep == nil || !dep.State.Terminal() {
				j.Reason = ReasonDependency
				continue
			}
		}
		part := c.partitions[j.Partition]
		if part == nil || !part.Up() {
			j.Reason = ReasonPartitionDown
			continue
		}
		if limit := p.accts[j.Account].cpuLimit; limit > 0 &&
			p.cpusInUse[j.Account]+j.ReqTRES.CPUs > limit {
			j.Reason = ReasonAssocGrpCpuLimit
			continue
		}
		if j.QOS != "" {
			if q := c.qos[j.QOS]; q != nil && q.MaxJobsPerUser > 0 &&
				p.runningPerUserQOS[[2]string{j.User, j.QOS}] >= q.MaxJobsPerUser {
				j.Reason = ReasonQOSMaxJobsPerUser
				continue
			}
		}

		// Placement, then preemption for the job at the head of the queue.
		attempts++
		pp := c.partLocked(p, part)
		nodes := p.place(pp, j)
		if nodes == nil && !blockedOnResources {
			nodes = c.tryPreemptLocked(p, pp, j)
		}
		if nodes == nil {
			switch {
			case pp.allMaintBlocked(now.Add(j.TimeLimit)):
				// Slurm reports "ReqNodeNotAvail, Reserved for maintenance".
				j.Reason = ReasonReqNodeNotAvail
			case blockedOnResources:
				j.Reason = ReasonPriority
			default:
				j.Reason = ReasonResources
				blockedOnResources = true
			}
			// Capacity starvation wakes powered-down nodes that could host
			// the blocked job (cloud scheduling's ResumeProgram trigger);
			// each blocked job wakes at most its own node count, so the
			// whole backlog brings up enough capacity in one pass. Jobs
			// start once the nodes finish booting.
			if j.Reason == ReasonResources || j.Reason == ReasonPriority {
				c.autoWakeLocked(p, pp, j)
			}
			continue
		}
		c.startJobLocked(j, nodes, now)
		c.countRunningLocked(p, j)
		p.gen++
	}
}

// priorityLocked computes the multifactor-style priority without the
// fair-share term: a base plus QOS and partition factors plus an age factor
// (one point per minute waited). The caller adds the per-account fair-share
// penalty (see fairSharePenalty).
func (c *Controller) priorityLocked(j *Job, now time.Time) int64 {
	p := int64(1000)
	if q := c.qos[j.QOS]; q != nil {
		p += int64(q.Priority)
	}
	if part := c.partitions[j.Partition]; part != nil {
		p += int64(part.Priority)
	}
	age := now.Sub(j.SubmitTime)
	if age > 0 {
		p += int64(age / time.Minute)
	}
	return p
}

// perNodeShare splits a job allocation evenly across n nodes, rounding up so
// the allocation is never undercounted on any node.
func perNodeShare(t TRES, n int) TRES {
	if n <= 1 {
		return t
	}
	return TRES{
		CPUs:  (t.CPUs + n - 1) / n,
		MemMB: (t.MemMB + int64(n) - 1) / int64(n),
		GPUs:  (t.GPUs + n - 1) / n,
	}
}

// place finds nodes for the job, or nil when it cannot start now.
// Single-node jobs take the first schedulable node with room (first-fit over
// name order keeps placement deterministic); multi-node jobs need N nodes
// that can each hold an even share. The returned slice is a buffer the
// pass reuses: valid until the next placement.
func (p *schedPass) place(pp *passPart, j *Job) []string {
	want := max(j.ReqTRES.Nodes, 1)
	share := perNodeShare(j.ReqTRES, want)
	// No node has more of any resource free than the bound, so a share
	// that exceeds it fits nowhere.
	if !share.Fits(p.freeBound(pp)) {
		return nil
	}
	jobEnd := p.now.Add(j.TimeLimit)
	chosen := p.chosen[:0]
	for _, e := range pp.nodes {
		if e.maint.Before(jobEnd) || !share.Fits(e.n.Free()) || !e.n.HasFeatures(j.Constraint) {
			continue
		}
		if chosen = append(chosen, e.n.Name); len(chosen) == want {
			break
		}
	}
	p.chosen = chosen
	if len(chosen) < want {
		return nil
	}
	return chosen
}

// startJobLocked transitions a pending job to running on the given nodes.
// Caller holds c.mu; the accounting update is deferred to the caller's
// unlock via recordJob on the next Tick (the dbd copy is refreshed here
// synchronously because recordJob takes no controller locks).
func (c *Controller) startJobLocked(j *Job, nodes []string, now time.Time) {
	want := len(nodes)
	share := perNodeShare(j.ReqTRES, want)
	alloc := TRES{Nodes: want}
	for _, name := range nodes {
		n := c.nodes[name]
		n.Alloc = n.Alloc.Add(share)
		n.RunningJobs = append(n.RunningJobs, j.ID)
		alloc.CPUs += share.CPUs
		alloc.MemMB += share.MemMB
		alloc.GPUs += share.GPUs
	}
	j.State = StateRunning
	j.Reason = ReasonNone
	j.StartTime = now
	j.AllocTRES = alloc
	j.Nodes = append([]string(nil), nodes...)
	c.emitJobEvent(EventStarted, j, now)
	c.dbd.recordJob(j)
}

// allMaintBlocked reports whether every schedulable node in the partition
// is unavailable to a job ending at jobEnd solely because of an upcoming
// maintenance window: there is such a node, and even the latest window
// start among them falls before jobEnd.
func (pp *passPart) allMaintBlocked(jobEnd time.Time) bool {
	return len(pp.nodes) > 0 && pp.latestMaint.Before(jobEnd)
}

// tryPreemptLocked attempts to free room for j by requeueing running jobs
// whose QOS is preemptable (Slurm's PreemptMode=REQUEUE, the standby-tier
// semantics). It first verifies feasibility per node — current free space
// plus the shares of preemptable victims must cover j's per-node share on
// enough nodes — so victims are only requeued when j will actually start.
// Returns the chosen node list, or nil. Caller holds c.mu.
func (c *Controller) tryPreemptLocked(p *schedPass, pp *passPart, j *Job) []string {
	// With no victim to requeue, the nodes with room are the ones placement
	// already found too few of.
	if p.preemptable == 0 {
		return nil
	}
	// A preemptable job must never preempt others.
	if q := c.qos[j.QOS]; q != nil && q.Preemptable {
		return nil
	}
	want := max(j.ReqTRES.Nodes, 1)
	share := perNodeShare(j.ReqTRES, want)
	jobEnd := p.now.Add(j.TimeLimit)
	chosen, victims := p.chosen[:0], p.victims[:0]
	clear(p.seen)
	for _, e := range pp.nodes {
		n := e.n
		if e.maint.Before(jobEnd) || !n.HasFeatures(j.Constraint) {
			continue
		}
		free := n.Free()
		if share.Fits(free) {
			chosen = append(chosen, n.Name)
			if len(chosen) == want {
				break
			}
			continue
		}
		mark := len(victims)
		for _, id := range n.RunningJobs {
			v := c.jobs[id]
			if v == nil || v.State != StateRunning || p.seen[v.ID] {
				continue
			}
			q := c.qos[v.QOS]
			if q == nil || !q.Preemptable {
				continue
			}
			free = free.Add(perNodeShare(v.AllocTRES, len(v.Nodes)))
			victims = append(victims, v)
			if share.Fits(free) {
				break
			}
		}
		if !share.Fits(free) {
			victims = victims[:mark]
			continue
		}
		chosen = append(chosen, n.Name)
		for _, v := range victims[mark:] {
			p.seen[v.ID] = true
		}
		if len(chosen) == want {
			break
		}
	}
	p.chosen, p.victims = chosen, victims
	if len(chosen) < want {
		return nil
	}
	for _, v := range victims {
		c.requeueLocked(v, p.now)
	}
	p.preemptable -= len(victims)
	return chosen
}

// requeueLocked returns a preempted job to the pending queue with its
// original request intact. Caller holds c.mu.
func (c *Controller) requeueLocked(v *Job, now time.Time) {
	c.freeJobResourcesLocked(v)
	c.emitJobEvent(EventPreempted, v, now)
	v.State = StatePending
	v.Reason = ReasonPriority
	v.StartTime = time.Time{}
	v.EndTime = time.Time{}
	v.AllocTRES = TRES{}
	v.Nodes = nil
	v.ExitCode = 0
	c.dbd.recordJob(v)
}

// refreshNodeLoadLocked recomputes each node's CPU load from the CPU
// utilization of the jobs running on it. Caller holds c.mu.
func (c *Controller) refreshNodeLoadLocked() {
	for _, name := range c.nodeOrder {
		n := c.nodes[name]
		load := 0.0
		for _, id := range n.RunningJobs {
			j := c.jobs[id]
			if j == nil || j.State != StateRunning {
				continue
			}
			share := perNodeShare(j.AllocTRES, len(j.Nodes))
			load += float64(share.CPUs) * j.Profile.CPUUtilization
		}
		n.CPULoad = load
		if load > 0 {
			n.LastBusy = c.clock.Now()
		}
	}
}

// purgeLocked drops finished jobs older than the retention window from
// controller memory (they remain queryable via the accounting daemon).
// Caller holds c.mu.
func (c *Controller) purgeLocked(now time.Time) {
	cutoff := now.Add(-c.retention)
	keep := c.jobOrder[:0]
	for _, id := range c.jobOrder {
		j := c.jobs[id]
		if j == nil {
			continue
		}
		if j.State.Terminal() && !j.EndTime.IsZero() && j.EndTime.Before(cutoff) {
			delete(c.jobs, id)
			continue
		}
		keep = append(keep, id)
	}
	c.jobOrder = keep
}

// ActiveJobCount returns the number of jobs currently held in controller
// memory (pending + running + recently finished). Not an RPC.
func (c *Controller) ActiveJobCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.jobOrder)
}
