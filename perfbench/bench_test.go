package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ooddash/internal/browser"
	"ooddash/internal/core"
	"ooddash/internal/workload"
)

func TestArrivalsDeterministicPerSeed(t *testing.T) {
	a := arrivals(7, 300, 2*time.Second)
	b := arrivals(7, 300, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if len(a) < 450 || len(a) > 750 {
		t.Fatalf("%d arrivals in 2s at 300/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d due at %v after %v", i, a[i], a[i-1])
		}
	}
	if reflect.DeepEqual(a, arrivals(8, 300, 2*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestPagePlanDeterministicPerSeed(t *testing.T) {
	env, err := workload.Build(workload.SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	for name, def := range workloads {
		_, p1 := def.plan(env, 3)
		_, p2 := def.plan(env, 3)
		for i := 0; i < 200; i++ {
			if a, b := p1(i), p2(i); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: arrival %d planned as %v and %v", name, i, a, b)
			}
		}
	}
}

func TestSimOffsetIsPureInArrivalIndex(t *testing.T) {
	const epoch, step = 4, 6 * time.Second
	for _, i := range []int{9, 0, 3, 4, 100, 7, 8} {
		if got, want := simOffset(i, epoch, step), time.Duration(i/epoch)*step; got != want {
			t.Fatalf("simOffset(%d) = %v, want %v", i, got, want)
		}
	}
	for i := 1; i < 50; i++ {
		if simOffset(i, epoch, step) < simOffset(i-1, epoch, step) {
			t.Fatalf("clock moves back at arrival %d", i)
		}
	}
}

func TestTailIsHighestQuantileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		value, q  float64
		wantQNear float64
	}{
		{n: 2000, value: 1980, wantQNear: 0.99},
		{n: 1010, value: 1000, wantQNear: 0.990},
		{n: 1009, value: 999},
		{n: 100, value: 90, wantQNear: 0.9},
		{n: 11, value: 1},
	} {
		v, q := tail(seq(tc.n), 0.99)
		if v != tc.value {
			t.Errorf("n=%d: tail %v, want %v", tc.n, v, tc.value)
		}
		if beyond := tc.n - int(v); beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond %v", tc.n, beyond, v)
		}
		if tc.wantQNear > 0 && (q < tc.wantQNear-1e-3 || q > tc.wantQNear+1e-3) {
			t.Errorf("n=%d: reported quantile %v, want %v", tc.n, q, tc.wantQNear)
		}
	}
	if _, q := tail(seq(10), 0.99); q != 0.5 {
		t.Errorf("n=10: no quantile has ten beyond; want the median, got quantile %v", q)
	}
}

func TestCorruptBodyAndStray304AreFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/api/recent_jobs":
			w.Write([]byte(`{"jobs":[{"job_id":"1"`)) // truncated
		case "/api/storage":
			w.WriteHeader(http.StatusNotModified) // no ETag was ever sent
		default:
			w.Write([]byte(`{"announcements":[]}`))
		}
	}))
	defer srv.Close()
	c := newChecker(http.DefaultTransport)
	b := browser.New("user001", srv.URL, &http.Client{Transport: c}, nil)
	b.LoadPage([]browser.WidgetRequest{
		{Name: "announcements", Path: "/api/announcements"},
		{Name: "recent_jobs", Path: "/api/recent_jobs"},
		{Name: "storage", Path: "/api/storage"},
	})
	if bad := c.checkPending("user001"); bad != 1 {
		t.Fatalf("%d bodies failed the shape check, want 1 (the truncated one)", bad)
	}
	if got := c.failures.Load(); got != 2 {
		t.Fatalf("%d failures counted, want 2: %v", got, c.errs)
	}
}

// TestOpenLoopLatencyFromDueTime runs a small stack with every arrival due
// at once: later pages wait for a worker, and that wait is both reported as
// lateness and counted in their latency.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	env, err := buildEnv(workload.SmallSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := startStack(env, core.BackendConfig{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	def := workloads["homepage"]
	d, err := newDriver(st, def, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	recs := d.phase(make([]time.Duration, 60), 0)
	if len(recs) != 60 {
		t.Fatalf("%d pages", len(recs))
	}
	var late time.Duration
	for _, r := range recs {
		if r.start.Before(r.due) || r.end.Before(r.start) {
			t.Fatalf("page due %v started %v ended %v", r.due, r.start, r.end)
		}
		late += r.start.Sub(r.due)
	}
	if late <= 0 {
		t.Fatal("60 pages due at once on two workers reported no lateness")
	}
	s := summarize(recs)
	if s.lateP50 <= 0 || s.pageP50 < s.lateP50 {
		t.Fatalf("page p50 %.3fms must include lateness p50 %.3fms", s.pageP50, s.lateP50)
	}
	if got, want := st.env.Clock.Now(), d.t0.Add(simOffset(d.next-1, def.epoch, def.step)); !got.Equal(want) {
		t.Fatalf("clock at %v after %d arrivals, want %v", got, d.next, want)
	}
	if n := d.check.failures.Load(); n != 0 {
		t.Fatalf("%d failed checks: %v", n, d.check.errs)
	}
}

func TestReconcileFlagsNegativeSelfTime(t *testing.T) {
	m := &meter{}
	m.serve.add(8 * time.Millisecond)
	m.slurmReq.add(5 * time.Millisecond)
	if rc := reconcile(m, 10, 10, 0); !rc.ok || rc.residual != 0 {
		t.Fatalf("consistent layers: %+v", rc)
	}
	if rc := reconcile(m, 10, 10.8, 0); rc.ok {
		t.Fatalf("transport time beyond the client's: residual %.3f accepted", rc.residual)
	}
	m.slurmBg.add(2 * time.Millisecond) // background calls outside any TickPush
	if rc := reconcile(m, 10, 10, 1); rc.ok {
		t.Fatalf("negative push self time accepted: %+v", rc.selfMS)
	}
}
