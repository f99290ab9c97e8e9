package slurm

import "time"

// PriorityFactors decomposes one pending job's priority the way sprio
// reports it: base weight plus the QOS, partition, age, and fair-share
// contributions.
type PriorityFactors struct {
	JobID     JobID
	User      string
	Account   string
	Priority  int64 // total
	Base      int64
	QOS       int64
	Partition int64
	Age       int64
	FairShare int64 // negative: accumulated-usage penalty
}

// PendingPriorities returns the factor breakdown for every pending job,
// highest priority first — the data behind sprio. Counted as one squeue-
// class RPC.
func (c *Controller) PendingPriorities() []PriorityFactors {
	c.stats.Record(RPCSqueue)
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []PriorityFactors
	for _, id := range c.jobOrder {
		j := c.jobs[id]
		if j == nil || j.State != StatePending {
			continue
		}
		f := PriorityFactors{
			JobID: j.ID, User: j.User, Account: j.Account, Base: 1000,
		}
		if q := c.qos[j.QOS]; q != nil {
			f.QOS = int64(q.Priority)
		}
		if part := c.partitions[j.Partition]; part != nil {
			f.Partition = int64(part.Priority)
		}
		if age := now.Sub(j.SubmitTime); age > 0 {
			f.Age = int64(age / time.Minute)
		}
		f.FairShare = c.dbd.accountView(j.Account).penalty
		f.Priority = f.Base + f.QOS + f.Partition + f.Age + f.FairShare
		out = append(out, f)
	}
	// Highest priority first, ties by job ID for stable output.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0; k-- {
			a, b := &out[k-1], &out[k]
			if a.Priority > b.Priority || (a.Priority == b.Priority && a.JobID <= b.JobID) {
				break
			}
			out[k-1], out[k] = out[k], out[k-1]
		}
	}
	return out
}
