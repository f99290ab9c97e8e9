package slurmcli

import (
	"context"
	"sync"
	"time"

	"ooddash/internal/trace"
)

// DaemonFor maps a Slurm command to the daemon that serves it — the same
// blast-radius split Run enforces. The dashboard's observability layer uses
// it to attribute command cost to slurmctld vs slurmdbd, so /metrics can
// show dashboard-side RPC load next to the simulator's sdiag counters.
func DaemonFor(command string) string {
	switch command {
	case "sacct", "sreport":
		return "slurmdbd"
	case "squeue", "sinfo", "scontrol", "scancel", "sdiag", "sprio":
		return "slurmctld"
	}
	return "unknown"
}

// MeteredRunner wraps a Runner and reports every command's daemon, latency,
// and error to an observer. It is the instrumentation seam between the
// dashboard and the command surface: the backend wraps its runner once and
// every route's Slurm traffic is attributed without the routes knowing.
type MeteredRunner struct {
	// Next is the wrapped runner.
	Next Runner
	// Observe receives one call per command; nil disables reporting.
	// Duration is wall-clock. err is the command's error, nil on success.
	Observe func(command, daemon string, d time.Duration, err error)
}

// NewMeteredRunner wraps next with the observer.
func NewMeteredRunner(next Runner, observe func(command, daemon string, d time.Duration, err error)) *MeteredRunner {
	return &MeteredRunner{Next: next, Observe: observe}
}

// Run implements Runner.
func (m *MeteredRunner) Run(name string, args ...string) (string, error) {
	return m.RunContext(context.Background(), name, args...)
}

// RunContext implements CtxRunner: the same metering, plus a
// "slurmcli.<command>" span when the context carries an active trace, under
// which the fault injector and daemon handlers nest their own spans.
func (m *MeteredRunner) RunContext(ctx context.Context, name string, args ...string) (string, error) {
	start := time.Now()
	var sp *trace.Span
	if trace.SpanFromContext(ctx) != nil {
		ctx, sp = trace.StartSpan(ctx, "slurmcli."+name)
		sp.SetAttr("command", name)
		sp.SetAttr("daemon", DaemonFor(name))
	}
	out, err := RunWith(ctx, m.Next, name, args...)
	if sp != nil {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	if m.Observe != nil {
		m.Observe(name, DaemonFor(name), time.Since(start), err)
	}
	return out, err
}

// CountingRunner counts the commands that reach its wrapped runner, by
// daemon. Placed beneath a server's own MeteredRunner it sees exactly the
// commands that reached the simulated daemons: cache hits and degraded
// fallbacks never get here. It implements Runner only, not CtxRunner, so it
// adds nothing to trace shape.
type CountingRunner struct {
	next Runner
	mu   sync.Mutex
	byD  map[string]int64
}

// NewCountingRunner wraps next with per-daemon command counters.
func NewCountingRunner(next Runner) *CountingRunner {
	return &CountingRunner{next: next, byD: make(map[string]int64, 2)}
}

// Run implements Runner.
func (c *CountingRunner) Run(name string, args ...string) (string, error) {
	c.mu.Lock()
	c.byD[DaemonFor(name)]++
	c.mu.Unlock()
	return c.next.Run(name, args...)
}

// Snapshot returns a copy of the command counts by daemon.
func (c *CountingRunner) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.byD))
	for k, v := range c.byD {
		out[k] = v
	}
	return out
}
