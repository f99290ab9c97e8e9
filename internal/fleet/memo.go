package fleet

import (
	"strings"
	"time"

	"ooddash/internal/cache"
	"ooddash/internal/clock"
	"ooddash/internal/slurmcli"
)

// memoTTL bounds the fleet-shared upstream command memo: identical commands
// issued by different replicas within this window collapse to one upstream
// call. It stays well below the shortest widget TTL so the memo can never
// mask a refresh cadence — it only absorbs the same-instant duplicates of a
// single fleet-wide refresh wave.
const memoTTL = 10 * time.Second

// sharedRunner is the fleet's collapsed-forwarding layer: one runner beneath
// every replica that single-flights identical upstream commands and
// memoizes successful output for memoTTL on the shared clock, through the
// same cache.Cache the servers use. Errors are never cached.
//
// Ownership partitioning makes widget *refreshes* exclusive, but a widget's
// fetch may issue upstream commands keyed below the source key — the
// accounts widget polls per-account data shared by every user of that
// account, deduped only by a per-replica cache. Spreading per-user
// ownership across replicas would multiply those group-level commands by
// the number of owning replicas; the memo collapses them fleet-wide
// instead, the same way a caching proxy in front of slurmctld would.
type sharedRunner struct {
	cache *cache.Cache
	// upstream counts the commands that reached the daemons, by daemon.
	upstream *slurmcli.CountingRunner
}

func newSharedRunner(clk clock.Clock, next slurmcli.Runner) *sharedRunner {
	return &sharedRunner{cache: cache.New(clk), upstream: slurmcli.NewCountingRunner(next)}
}

func (m *sharedRunner) Run(name string, args ...string) (string, error) {
	out, err := m.cache.Fetch(name+"\x00"+strings.Join(args, "\x00"), memoTTL, func() (any, error) {
		return m.upstream.Run(name, args...)
	})
	s, _ := out.(string)
	return s, err
}
