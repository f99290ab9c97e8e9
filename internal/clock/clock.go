// Package clock is the stack's one time source. Every layer that reads the
// time or waits takes a Clock: servers, caches, breakers, schedulers and the
// simulated cluster share one Sim so TTLs, stale windows, breaker windows and
// Slurm time agree and runs are deterministic. Real is the wall clock, for
// clients that are not driven by a simulation.
package clock

import (
	"sync"
	"time"
)

// Clock supplies the current time and pauses for a duration.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// Real is a Clock backed by the system wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock with time.Sleep.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Sim is a manually advanced Clock. The zero value is not usable; use
// NewSim. Sim is safe for concurrent use.
type Sim struct {
	mu  sync.RWMutex
	now time.Time
}

// NewSim returns a Sim starting at the given instant.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now implements Clock.
func (c *Sim) Now() time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
// Negative durations are ignored: simulated time never goes backwards.
func (c *Sim) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now = c.now.Add(d)
	}
	return c.now
}

// Sleep implements Clock by advancing the simulated clock by d, so retry
// backoff and injected latency consume simulated rather than wall time.
func (c *Sim) Sleep(d time.Duration) { c.Advance(d) }

// Set jumps the clock to t if t is not before the current time.
func (c *Sim) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}
