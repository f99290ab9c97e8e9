package main

import (
	"context"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ooddash/internal/browser"
	"ooddash/internal/cache"
	"ooddash/internal/clientcache"
	"ooddash/internal/push"
)

// workers is the number of goroutines loading pages: one per CPU of the
// 2-vCPU machine the benchmark is sized for, never more than the CPUs here.
var workers = min(2, runtime.NumCPU())

// pageRecord is one completed page view.
type pageRecord struct {
	due, start, end time.Time
	fetchMS         []float64 // each network fetch, as the browser timed it
	paints          int       // widgets attempted
	failed          int       // widgets with no paint, or painted from a failed refresh
	instant         int       // widgets painted without waiting on the network
	revalidated     int       // refreshes answered 304
	myJobs          bool      // a My Jobs page
}

// driver runs a workload's arrivals against one stack.
type driver struct {
	st       *stack
	def      workloadDef
	plan     planner
	users    []string
	browsers []*browser.Browser
	locks    []sync.Mutex
	check    *checker
	tr       *http.Transport
	streams  []*browser.EventStream
	received atomic.Int64 // bytes the browsers read from their sockets

	next  int       // next arrival index
	t0    time.Time // simulated clock at arrival 0
	churn *rand.Rand

	// Generator-side work between epochs.
	writeNS, writes int64
	tickNS, ticks   int64
	genCtl, genDBD  int64 // daemon RPCs the generator's own writes issued

	lastTick   atomic.Int64 // start of the latest TickPush, unix ns
	pushEvents atomic.Int64
	lagMu      sync.Mutex
	pushLagMS  []float64
}

func newDriver(st *stack, def workloadDef, seed int64) (*driver, error) {
	users, plan := def.plan(st.env, seed)
	d := &driver{
		st: st, def: def, plan: plan, users: users,
		locks: make([]sync.Mutex, len(users)),
		t0:    st.env.Clock.Now(),
		churn: rand.New(rand.NewSource(seed + 1)),
	}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	d.tr = &http.Transport{
		MaxIdleConnsPerHost:   2 * workers,
		IdleConnTimeout:       time.Minute,
		ResponseHeaderTimeout: time.Minute,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: c, n: &d.received}, nil
		},
	}
	d.check = newChecker(d.tr)
	for _, u := range users {
		client := &http.Client{Transport: d.check}
		d.browsers = append(d.browsers, browser.New(u, st.baseURL, client, st.env.Clock))
	}
	for i := 0; i < def.streams && i < len(d.browsers); i++ {
		b, user := d.browsers[i], users[i]
		es, err := b.OpenEventStream(streamWidgets(), func(ev push.Event) { d.onEvent(user, ev) })
		if err != nil {
			d.close()
			return nil, err
		}
		d.streams = append(d.streams, es)
	}
	return d, nil
}

// onEvent times and checks one event-stream delivery.
func (d *driver) onEvent(user string, ev push.Event) {
	for _, w := range streamWidgets() {
		if w.Name == ev.Name {
			d.check.forget(user, w.Path)
			if err := checkBody(w.Path, ev.Data); err != nil {
				d.check.fail(err)
			}
		}
	}
	d.pushEvents.Add(1)
	if t := d.lastTick.Load(); t != 0 {
		lag := float64(time.Now().UnixNano()-t) / 1e6
		d.lagMu.Lock()
		d.pushLagMS = append(d.pushLagMS, lag)
		d.lagMu.Unlock()
	}
}

func (d *driver) close() {
	for _, es := range d.streams {
		es.Close()
	}
	d.tr.CloseIdleConnections()
}

// snapshot is the counters a phase's metrics are deltas of.
type snapshot struct {
	mallocs, numGC                    uint64
	ctl, dbd                          int64 // daemon RPCs less the generator's writes
	renderHits, renderMisses, encodes int64
	cache                             cache.Stats
	retries, shortCircuits, rejected  int64
	bytes, requests, transportNS      int64
	ticks, tickNS, writes, writeNS    int64
	events, lags                      int64
}

func (s snapshot) rpcs() int64 { return s.ctl + s.dbd }

// snap reads every counter. Call it only between phases: it stops the world.
func (d *driver) snap() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c, srv := d.st.env.Cluster, d.st.srv
	s := snapshot{
		mallocs: ms.Mallocs, numGC: uint64(ms.NumGC),
		ctl: c.Ctl.Stats().Total() - d.genCtl, dbd: c.DBD.Stats().Total() - d.genDBD,
		encodes: srv.RenderEncodes(),
		cache:   srv.Cache().Stats(),
		bytes:   d.received.Load(), requests: d.check.requests.Load(), transportNS: d.check.transportNS.Load(),
		ticks: d.ticks, tickNS: d.tickNS, writes: d.writes, writeNS: d.writeNS,
		events: d.pushEvents.Load(),
	}
	s.renderHits, s.renderMisses = srv.RenderStats()
	for _, b := range srv.Resilience().Snapshot() {
		s.retries += b.Retries
		s.shortCircuits += b.ShortCircuits
	}
	for _, f := range srv.FillStats() {
		s.rejected += f.Rejected
	}
	d.lagMu.Lock()
	s.lags = int64(len(d.pushLagMS))
	d.lagMu.Unlock()
	return s
}

// advance runs the epoch boundary before arrival d.next: the clock moves to
// its position for that arrival, the epoch's jobs are submitted and the
// scheduler ticks, then the push scheduler runs its due refreshes (and the
// cache purge) as its wall-clock loop would.
func (d *driver) advance() {
	clock := d.st.env.Clock
	if gap := d.t0.Add(simOffset(d.next, d.def.epoch, d.def.step)).Sub(clock.Now()); gap > 0 {
		clock.Advance(gap)
	}
	if d.def.churn > 0 {
		c := d.st.env.Cluster
		ctl, dbd := c.Ctl.Stats().Total(), c.DBD.Stats().Total()
		start := time.Now()
		d.st.env.SubmitRandom(d.churn, d.def.churn)
		d.writeNS += int64(time.Since(start))
		d.writes++
		d.genCtl += c.Ctl.Stats().Total() - ctl
		d.genDBD += c.DBD.Stats().Total() - dbd
	}
	start := time.Now()
	d.lastTick.Store(start.UnixNano())
	d.st.srv.TickPush()
	d.tickNS += int64(time.Since(start))
	d.ticks++
}

// countingConn counts the bytes read from a connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type task struct {
	pg  page
	due time.Time
}

// phase serves count arrivals from d.next on. With dues (one per arrival)
// it is open loop: arrival k is due dues[k] after the phase starts and is
// timed from then, however late a worker takes it. Without dues it is
// closed loop: a worker takes the next arrival as soon as it is free. One
// goroutine hands arrivals to the workers in order and alone waits for
// due times (waiting in every worker would spin two CPUs). An epoch's first
// arrival waits until the earlier ones finish and the boundary has run; the
// schedule is paused for as long as that takes.
func (d *driver) phase(dues []time.Duration, count int) []pageRecord {
	if dues != nil {
		count = len(dues)
	}
	tasks := make(chan task)
	var (
		inflight, done sync.WaitGroup
		mu             sync.Mutex
		recs           []pageRecord
	)
	for w := 0; w < workers; w++ {
		done.Add(1)
		go func() {
			defer done.Done()
			for t := range tasks {
				rec := d.load(t)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
				inflight.Done()
			}
		}()
	}
	start := time.Now()
	var paused time.Duration
	for k := 0; k < count; k++ {
		if d.next > 0 && d.next%d.def.epoch == 0 {
			p := time.Now()
			inflight.Wait()
			d.advance()
			paused += time.Since(p)
		}
		t := task{pg: d.plan(d.next), due: time.Now()}
		if dues != nil {
			t.due = start.Add(dues[k] + paused)
			waitUntil(t.due)
		}
		inflight.Add(1)
		tasks <- t
		d.next++
	}
	close(tasks)
	done.Wait()
	return recs
}

// waitUntil returns at t. It sleeps until a millisecond before and yields
// the rest: an idle Go process wakes from a sub-millisecond sleep up to a
// millisecond late, which would count as latency on every page view.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// load runs one page view in its browser and checks the bodies it received.
func (d *driver) load(t task) pageRecord {
	rec := pageRecord{due: t.due, myJobs: t.pg.widgets[0].Name == "my_jobs"}
	d.locks[t.pg.browser].Lock()
	defer d.locks[t.pg.browser].Unlock()
	rec.start = time.Now()
	pl := d.browsers[t.pg.browser].LoadPage(t.pg.widgets)
	rec.end = time.Now()
	for _, w := range pl.Widgets {
		rec.paints++
		if w.Err != nil || w.StaleFallback {
			rec.failed++
			if w.Err != nil {
				d.check.note(w.Err)
			}
		}
		if w.NetworkTime > 0 {
			rec.fetchMS = append(rec.fetchMS, float64(w.NetworkTime)/1e6)
		}
		switch w.Source {
		case clientcache.SourceFresh, clientcache.SourceStale, clientcache.SourceRevalidated:
			rec.instant++
		}
		if w.Source == clientcache.SourceRevalidated {
			rec.revalidated++
		}
	}
	d.check.checkPending(d.users[t.pg.browser])
	return rec
}
