package core

import "time"

// Cache purging. cache.Purge drops entries past their stale grace window,
// but nothing called it in the long-running server, so the server cache (and
// now the rendered-response cache, whose keys include per-user variants and
// query strings) grew without bound over weeks of uptime. The server sweeps
// both caches every purgeInterval: production servers get a
// wall-clock ticker from StartPush, simulated-clock runs get the same sweep
// from TickPush, and both paths share purgeNow so the /metrics counters
// agree.

// purgeNow sweeps both caches immediately and returns how many entries were
// dropped. Safe to call from any goroutine.
func (s *Server) purgeNow() int {
	n := s.cache.Purge() + s.rendered.Purge()
	if n > 0 {
		s.purgedTotal.Add(int64(n))
	}
	s.purgeMu.Lock()
	s.lastPurge = s.clock.Now()
	s.purgeMu.Unlock()
	return n
}

// maybePurge sweeps when at least purgeInterval has elapsed on the shared
// clock since the last sweep — the simulated-clock path, driven from
// TickPush.
func (s *Server) maybePurge() {
	now := s.clock.Now()
	s.purgeMu.Lock()
	due := now.Sub(s.lastPurge) >= purgeInterval
	if due {
		// Claim the sweep before unlocking so concurrent callers don't stack.
		s.lastPurge = now
	}
	s.purgeMu.Unlock()
	if !due {
		return
	}
	if n := s.cache.Purge() + s.rendered.Purge(); n > 0 {
		s.purgedTotal.Add(int64(n))
	}
}

// startPurgeLoop runs the wall-clock sweep until Close. The interval bounds
// how long a dead entry can linger, so the data clock is irrelevant here.
func (s *Server) startPurgeLoop() {
	go func() {
		t := time.NewTicker(purgeInterval)
		defer t.Stop()
		for {
			select {
			case <-s.pushDone:
				return
			case <-t.C:
				s.purgeNow()
			}
		}
	}()
}
