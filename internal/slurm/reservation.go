package slurm

import (
	"fmt"
	"sort"
	"time"
)

// MaintenanceWindow is a scheduled maintenance reservation: the named nodes
// (or the whole cluster) are taken out of scheduling during [Start, End),
// and — like Slurm's maint reservations — jobs whose time limit would
// overlap the window are not started on those nodes beforehand.
type MaintenanceWindow struct {
	ID     int
	Name   string
	Start  time.Time
	End    time.Time
	Nodes  []string // empty means every node
	Reason string
}

// Active reports whether the window covers the instant t.
func (m *MaintenanceWindow) Active(t time.Time) bool {
	return !t.Before(m.Start) && t.Before(m.End)
}

// Upcoming reports whether the window starts after t.
func (m *MaintenanceWindow) Upcoming(t time.Time) bool {
	return m.Start.After(t)
}

// covers reports whether the window includes the node.
func (m *MaintenanceWindow) covers(node string) bool {
	if len(m.Nodes) == 0 {
		return true
	}
	for _, n := range m.Nodes {
		if n == node {
			return true
		}
	}
	return false
}

// ScheduleMaintenance registers a maintenance window and returns its ID.
// Nodes may be empty (whole cluster) or a list of node names.
func (c *Controller) ScheduleMaintenance(name string, start, end time.Time, nodes []string, reason string) (int, error) {
	if !end.After(start) {
		return 0, fmt.Errorf("slurm: maintenance %q ends before it starts", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range nodes {
		if _, ok := c.nodes[n]; !ok {
			return 0, fmt.Errorf("slurm: maintenance %q names unknown node %q", name, n)
		}
	}
	c.maintSeq++
	w := MaintenanceWindow{
		ID: c.maintSeq, Name: name, Start: start, End: end,
		Nodes: append([]string(nil), nodes...), Reason: reason,
	}
	c.maintWindows = append(c.maintWindows, w)
	sort.Slice(c.maintWindows, func(i, j int) bool {
		return c.maintWindows[i].Start.Before(c.maintWindows[j].Start)
	})
	return w.ID, nil
}

// CancelMaintenance removes a window by ID.
func (c *Controller) CancelMaintenance(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, w := range c.maintWindows {
		if w.ID == id {
			c.maintWindows = append(c.maintWindows[:i], c.maintWindows[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("slurm: unknown maintenance window %d", id)
}

// MaintenanceWindows returns copies of all registered windows, soonest
// first, including past ones not yet pruned.
func (c *Controller) MaintenanceWindows() []MaintenanceWindow {
	c.stats.Record(RPCSinfo)
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]MaintenanceWindow, len(c.maintWindows))
	for i, w := range c.maintWindows {
		out[i] = w
		out[i].Nodes = append([]string(nil), w.Nodes...)
	}
	return out
}

// applyMaintenanceLocked recomputes every node's Maint flag from manual
// settings plus the active windows, and prunes windows long past. Caller
// holds c.mu.
func (c *Controller) applyMaintenanceLocked(now time.Time) {
	// Prune windows that ended more than a day ago.
	keep := c.maintWindows[:0]
	for _, w := range c.maintWindows {
		if now.Sub(w.End) < 24*time.Hour {
			keep = append(keep, w)
		}
	}
	c.maintWindows = keep

	for name, n := range c.nodes {
		maint := c.manualMaint[name]
		if !maint {
			for i := range c.maintWindows {
				w := &c.maintWindows[i]
				if w.Active(now) && w.covers(name) {
					maint = true
					if n.StateReason == "" {
						n.StateReason = "maintenance: " + w.Name
					}
					break
				}
			}
		}
		if n.Maint && !maint && !c.manualMaint[name] {
			// Window ended: clear the reason we set.
			if len(n.StateReason) > 12 && n.StateReason[:12] == "maintenance:" {
				n.StateReason = ""
			}
		}
		n.Maint = maint
	}
}
