package slurm

import (
	"fmt"
	"strings"
	"time"
)

// Power management models Slurm's energy-saving cycle (SuspendProgram /
// ResumeProgram) and health-check reboots (scontrol reboot): idle nodes can
// be powered down, a powered-down node wakes when the scheduler needs it for
// pending work, and a drained node can be rebooted and returned to service.
// Transitions take simulated time — a waking node is unschedulable until its
// boot delay elapses — so drills see the same window of reduced capacity a
// real cluster does.

const (
	// DefaultResumeDelay is how long a powered-down node takes to boot back
	// into service (Slurm's ResumeTimeout scale).
	DefaultResumeDelay = 3 * time.Minute
	// DefaultRebootDelay is how long a full reboot cycle takes.
	DefaultRebootDelay = 5 * time.Minute
)

// rebootReasonPrefix tags StateReason while a reboot is in progress so the
// completion handler knows to clear it.
const rebootReasonPrefix = "reboot:"

// PowerStats counts power-state transitions since cluster start.
type PowerStats struct {
	PowerDowns int // nodes powered down for energy saving
	PowerUps   int // power-up requests, manual and automatic
	AutoWakes  int // power-ups initiated by the scheduler for pending work
	Reboots    int // reboot cycles started
}

// SetPowerDelays overrides the boot delays (zero keeps the current value).
func (c *Controller) SetPowerDelays(resume, reboot time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if resume > 0 {
		c.resumeDelay = resume
	}
	if reboot > 0 {
		c.rebootDelay = reboot
	}
}

// Power returns the power-transition counters.
func (c *Controller) Power() PowerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.power
}

// PowerDownNode powers an idle node down for energy saving. The node must
// hold no allocation and not be down or mid-transition; powering down an
// already powered-down node is a no-op.
func (c *Controller) PowerDownNode(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[name]
	if n == nil {
		return fmt.Errorf("slurm: unknown node %q", name)
	}
	if n.PoweredDown {
		return nil
	}
	if n.Alloc.CPUs > 0 || len(n.RunningJobs) > 0 {
		return fmt.Errorf("slurm: power down %s: node has running jobs", name)
	}
	if n.State == NodeDown || n.PoweringUp || n.Rebooting {
		return fmt.Errorf("slurm: power down %s: node is %s", name, n.EffectiveState())
	}
	n.PoweredDown = true
	c.power.PowerDowns++
	return nil
}

// PowerDownIdle powers down every idle, schedulable node beyond the first
// keep of them (in name order), returning the names powered down — the
// energy-saving sweep an operator or automation runs over a quiet cluster.
func (c *Controller) PowerDownIdle(keep int) []string {
	c.mu.Lock()
	var candidates []string
	idle := 0
	for _, name := range c.nodeOrder {
		n := c.nodes[name]
		if !n.Schedulable() || n.Alloc.CPUs > 0 || len(n.RunningJobs) > 0 {
			continue
		}
		idle++
		if idle > keep {
			candidates = append(candidates, name)
		}
	}
	c.mu.Unlock()
	var out []string
	for _, name := range candidates {
		if err := c.PowerDownNode(name); err == nil {
			out = append(out, name)
		}
	}
	return out
}

// PowerUpNode begins booting a powered-down node; it becomes schedulable
// after the resume delay elapses (on a later Tick).
func (c *Controller) PowerUpNode(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.powerUpLocked(name, false)
}

// powerUpLocked is PowerUpNode under c.mu; auto marks scheduler-initiated
// wakes in the stats.
func (c *Controller) powerUpLocked(name string, auto bool) error {
	n := c.nodes[name]
	if n == nil {
		return fmt.Errorf("slurm: unknown node %q", name)
	}
	if !n.PoweredDown {
		return fmt.Errorf("slurm: power up %s: node is not powered down", name)
	}
	n.PoweredDown = false
	n.PoweringUp = true
	n.PowerReadyAt = c.clock.Now().Add(c.powerResumeDelayLocked())
	c.power.PowerUps++
	if auto {
		c.power.AutoWakes++
	}
	return nil
}

// RebootNode starts a reboot cycle (scontrol reboot): the node must hold no
// running jobs (drain it first), stays unschedulable for the reboot delay,
// and comes back with a fresh BootTime. A down node may be rebooted as a
// repair action; it returns to IDLE when the reboot completes. The Drain
// flag is preserved across the reboot so the health-check flow controls when
// the node takes work again (drain → reboot → resume).
func (c *Controller) RebootNode(name, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[name]
	if n == nil {
		return fmt.Errorf("slurm: unknown node %q", name)
	}
	if n.Alloc.CPUs > 0 || len(n.RunningJobs) > 0 {
		return fmt.Errorf("slurm: reboot %s: node has running jobs", name)
	}
	if n.Rebooting {
		return nil
	}
	n.PoweredDown = false
	n.PoweringUp = false
	n.Rebooting = true
	n.PowerReadyAt = c.clock.Now().Add(c.powerRebootDelayLocked())
	if reason != "" {
		n.StateReason = rebootReasonPrefix + " " + reason
	}
	c.power.Reboots++
	return nil
}

func (c *Controller) powerResumeDelayLocked() time.Duration {
	if c.resumeDelay > 0 {
		return c.resumeDelay
	}
	return DefaultResumeDelay
}

func (c *Controller) powerRebootDelayLocked() time.Duration {
	if c.rebootDelay > 0 {
		return c.rebootDelay
	}
	return DefaultRebootDelay
}

// applyPowerLocked completes power-up and reboot transitions whose delay has
// elapsed. Caller holds c.mu.
func (c *Controller) applyPowerLocked(now time.Time) {
	for _, name := range c.nodeOrder {
		n := c.nodes[name]
		if !n.PoweringUp && !n.Rebooting {
			continue
		}
		if now.Before(n.PowerReadyAt) {
			continue
		}
		wasReboot := n.Rebooting
		n.PoweringUp = false
		n.Rebooting = false
		n.PowerReadyAt = time.Time{}
		n.BootTime = now
		if n.State == NodeDown {
			// A reboot repairs a down node.
			n.State = NodeIdle
		}
		if wasReboot && strings.HasPrefix(n.StateReason, rebootReasonPrefix) {
			n.StateReason = ""
		}
	}
}

// autoWakeLocked powers up suitable powered-down nodes when a pending job is
// blocked on resources — Slurm's cloud-scheduling ResumeProgram trigger. It
// wakes at most as many nodes as the job needs; they become schedulable after
// the resume delay and the job starts on a later pass. Caller holds c.mu.
func (c *Controller) autoWakeLocked(p *schedPass, pp *passPart, j *Job) {
	want := max(j.ReqTRES.Nodes, 1)
	share := perNodeShare(j.ReqTRES, want)
	jobEnd := p.now.Add(j.TimeLimit)
	woken := 0
	for _, e := range pp.asleep {
		if woken >= want {
			return
		}
		n := e.n
		if !n.PoweredDown || n.Drain || n.Maint || n.State == NodeDown {
			continue
		}
		if !n.HasFeatures(j.Constraint) || !share.Fits(n.Free()) || e.maint.Before(jobEnd) {
			continue
		}
		if c.powerUpLocked(n.Name, true) == nil {
			woken++
		}
	}
}
