package slurm

import (
	"sort"
	"time"
)

// This file keeps the scheduler as it was before the pass table: every
// placement helper looked nodes up by name, walked every maintenance window
// for every node, and cloned the account association for every pending job.
// TestSchedulerMatchesReference ticks it beside Tick over random streams; the
// two must leave identical state after every Tick.

// refTick is the reference Tick: three separate walks of the queue.
func (c *Controller) refTick() {
	now := c.clock.Now()

	type finished struct {
		job *Job
	}
	var done []finished

	c.mu.Lock()
	c.applyMaintenanceLocked(now)
	c.applyPowerLocked(now)
	for _, id := range c.jobOrder {
		j := c.jobs[id]
		if j == nil || (j.State != StateRunning && j.State != StateSuspended) {
			continue
		}
		for _, nname := range j.Nodes {
			if n := c.nodes[nname]; n != nil && n.State == NodeDown {
				c.freeJobResourcesLocked(j)
				j.State = StateNodeFail
				j.Reason = ReasonNone
				j.EndTime = now
				j.ExitCode = 1
				c.emitJobEvent(EventNodeFail, j, now)
				done = append(done, finished{job: j.Clone()})
				break
			}
		}
	}
	for _, id := range c.jobOrder {
		j := c.jobs[id]
		if j == nil || j.State != StateRunning {
			continue
		}
		end, state := j.scheduledEnd()
		if !now.Before(end) {
			c.freeJobResourcesLocked(j)
			j.State = state
			j.Reason = ReasonNone
			j.EndTime = end
			j.ExitCode = j.Profile.ExitCode
			if state == StateTimeout || state == StateOutOfMemory {
				j.ExitCode = 1
			}
			c.emitJobEvent(stateEventKind(state), j, end)
			done = append(done, finished{job: j.Clone()})
		}
	}
	c.refScheduleLocked(now)
	c.refreshNodeLoadLocked()
	c.purgeLocked(now)
	c.mu.Unlock()

	for _, f := range done {
		c.dbd.recordJob(f.job)
		c.dbd.chargeUsage(f.job, now)
	}
	c.dbd.AdvanceRollups(now)
}

func (c *Controller) refScheduleLocked(now time.Time) {
	pending := make([]*Job, 0, 64)
	runningPerUserQOS := make(map[[2]string]int)
	cpusInUsePerAccount := make(map[string]int)
	for _, id := range c.jobOrder {
		j := c.jobs[id]
		if j == nil {
			continue
		}
		switch j.State {
		case StatePending:
			pending = append(pending, j)
		case StateRunning:
			runningPerUserQOS[[2]string{j.User, j.QOS}]++
			cpusInUsePerAccount[j.Account] += j.AllocTRES.CPUs
		}
	}
	if len(pending) == 0 {
		return
	}
	penalties := make(map[string]int64)
	for _, j := range pending {
		if _, ok := penalties[j.Account]; !ok {
			penalties[j.Account] = c.refFairSharePenaltyLocked(j.Account)
		}
		j.Priority = c.priorityLocked(j, now) + penalties[j.Account]
	}
	sort.Slice(pending, func(i, k int) bool {
		if pending[i].Priority != pending[k].Priority {
			return pending[i].Priority > pending[k].Priority
		}
		if !pending[i].SubmitTime.Equal(pending[k].SubmitTime) {
			return pending[i].SubmitTime.Before(pending[k].SubmitTime)
		}
		return pending[i].ID < pending[k].ID
	})
	attempts := 0
	blockedOnResources := false
	for _, j := range pending {
		if attempts >= schedQueueDepth {
			break
		}
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
		assoc := c.dbd.Association(AssocKey{Account: j.Account})
		if assoc != nil && assoc.GrpCPULimit > 0 &&
			cpusInUsePerAccount[j.Account]+j.ReqTRES.CPUs > assoc.GrpCPULimit {
			j.Reason = ReasonAssocGrpCpuLimit
			continue
		}
		if j.QOS != "" {
			if q := c.qos[j.QOS]; q != nil && q.MaxJobsPerUser > 0 &&
				runningPerUserQOS[[2]string{j.User, j.QOS}] >= q.MaxJobsPerUser {
				j.Reason = ReasonQOSMaxJobsPerUser
				continue
			}
		}
		attempts++
		nodes := c.refPlaceLocked(j, part)
		if nodes == nil && !blockedOnResources {
			nodes = c.refTryPreemptLocked(j, part, now)
		}
		if nodes == nil {
			switch {
			case c.refAllNodesMaintBlockedLocked(j, part, now):
				j.Reason = ReasonReqNodeNotAvail
			case blockedOnResources:
				j.Reason = ReasonPriority
			default:
				j.Reason = ReasonResources
				blockedOnResources = true
			}
			if j.Reason == ReasonResources || j.Reason == ReasonPriority {
				c.refAutoWakeLocked(j, part, now)
			}
			continue
		}
		c.startJobLocked(j, nodes, now)
		runningPerUserQOS[[2]string{j.User, j.QOS}]++
		cpusInUsePerAccount[j.Account] += j.AllocTRES.CPUs
	}
}

func (c *Controller) refFairSharePenaltyLocked(account string) int64 {
	a := c.dbd.Association(AssocKey{Account: account})
	if a == nil {
		return 0
	}
	penalty := int64(a.CPUTimeUsed / 200)
	if penalty > 400 {
		penalty = 400
	}
	return -penalty
}

func (c *Controller) refPlaceLocked(j *Job, part *Partition) []string {
	want := j.ReqTRES.Nodes
	if want <= 0 {
		want = 1
	}
	now := c.clock.Now()
	share := perNodeShare(j.ReqTRES, want)
	var chosen []string
	for _, name := range part.Nodes {
		n := c.nodes[name]
		if n == nil || !n.Schedulable() || !n.HasFeatures(j.Constraint) {
			continue
		}
		if c.refNodeBlockedByMaintenanceLocked(name, now, j.TimeLimit) {
			continue
		}
		if share.Fits(n.Free()) {
			chosen = append(chosen, name)
			if len(chosen) == want {
				return chosen
			}
		}
	}
	return nil
}

func (c *Controller) refAllNodesMaintBlockedLocked(j *Job, part *Partition, now time.Time) bool {
	if len(c.maintWindows) == 0 {
		return false
	}
	blocked := false
	for _, name := range part.Nodes {
		n := c.nodes[name]
		if n == nil || !n.Schedulable() {
			continue
		}
		if c.refNodeBlockedByMaintenanceLocked(name, now, j.TimeLimit) {
			blocked = true
			continue
		}
		return false
	}
	return blocked
}

func (c *Controller) refTryPreemptLocked(j *Job, part *Partition, now time.Time) []string {
	if q := c.qos[j.QOS]; q != nil && q.Preemptable {
		return nil
	}
	want := j.ReqTRES.Nodes
	if want <= 0 {
		want = 1
	}
	share := perNodeShare(j.ReqTRES, want)
	var (
		chosen  []string
		victims []*Job
		seen    = make(map[JobID]bool)
	)
	for _, name := range part.Nodes {
		n := c.nodes[name]
		if n == nil || !n.Schedulable() || !n.HasFeatures(j.Constraint) {
			continue
		}
		if c.refNodeBlockedByMaintenanceLocked(name, now, j.TimeLimit) {
			continue
		}
		free := n.Free()
		if share.Fits(free) {
			chosen = append(chosen, name)
			if len(chosen) == want {
				break
			}
			continue
		}
		var nodeVictims []*Job
		for _, id := range n.RunningJobs {
			v := c.jobs[id]
			if v == nil || v.State != StateRunning || seen[v.ID] {
				continue
			}
			q := c.qos[v.QOS]
			if q == nil || !q.Preemptable {
				continue
			}
			free = free.Add(perNodeShare(v.AllocTRES, len(v.Nodes)))
			nodeVictims = append(nodeVictims, v)
			if share.Fits(free) {
				break
			}
		}
		if share.Fits(free) {
			chosen = append(chosen, name)
			for _, v := range nodeVictims {
				seen[v.ID] = true
			}
			victims = append(victims, nodeVictims...)
			if len(chosen) == want {
				break
			}
		}
	}
	if len(chosen) < want {
		return nil
	}
	for _, v := range victims {
		c.requeueLocked(v, now)
	}
	return chosen
}

func (c *Controller) refAutoWakeLocked(j *Job, part *Partition, now time.Time) {
	want := j.ReqTRES.Nodes
	if want <= 0 {
		want = 1
	}
	share := perNodeShare(j.ReqTRES, want)
	woken := 0
	for _, name := range part.Nodes {
		if woken >= want {
			return
		}
		n := c.nodes[name]
		if n == nil || !n.PoweredDown || n.Drain || n.Maint || n.State == NodeDown {
			continue
		}
		if !n.HasFeatures(j.Constraint) || !share.Fits(n.Free()) {
			continue
		}
		if c.refNodeBlockedByMaintenanceLocked(name, now, j.TimeLimit) {
			continue
		}
		if c.powerUpLocked(name, true) == nil {
			woken++
		}
	}
}

func (c *Controller) refNodeBlockedByMaintenanceLocked(name string, now time.Time, limit time.Duration) bool {
	jobEnd := now.Add(limit)
	for i := range c.maintWindows {
		w := &c.maintWindows[i]
		if !w.covers(name) {
			continue
		}
		if now.Before(w.End) && w.Start.Before(jobEnd) {
			return true
		}
	}
	return false
}
