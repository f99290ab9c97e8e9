package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ooddash/internal/auth"
	"ooddash/internal/core"
	"ooddash/internal/slurm"
	"ooddash/internal/slurmcli"
)

// shape lists a widget payload's required top-level keys and the first
// byte of each value's JSON: '[' array (null allowed), '{' object,
// '"' string, '0' number, 't' boolean.
type shape map[string]byte

// shapeFor returns the payload shape of the widget route at path.
func shapeFor(path string) (shape, bool) {
	switch path {
	case "/api/announcements":
		return shape{"announcements": '['}, true
	case "/api/recent_jobs":
		return shape{"jobs": '['}, true
	case "/api/system_status":
		return shape{"cluster": '"', "partitions": '['}, true
	case "/api/accounts":
		return shape{"accounts": '['}, true
	case "/api/storage":
		return shape{"directories": '['}, true
	case "/api/myjobs":
		return shape{"jobs": '[', "total": '0', "matched": '0', "offset": '0'}, true
	case "/api/myjobs/charts":
		return shape{"state_distribution": '[', "gpu_hours": '['}, true
	case "/api/cluster_status":
		return shape{"cluster": '"', "nodes": '[', "state_counts": '{', "total": '0'}, true
	}
	parts := strings.Split(strings.TrimPrefix(path, "/api/"), "/")
	switch {
	case len(parts) == 2 && parts[0] == "node":
		return shape{"name": '"', "state": '"', "cpus_total": '0'}, true
	case len(parts) == 3 && parts[0] == "node" && parts[2] == "jobs":
		return shape{"node": '"', "jobs": '['}, true
	case len(parts) == 2 && parts[0] == "job":
		return shape{"job_id": '"', "state": '"', "timeline": '['}, true
	case len(parts) == 3 && parts[0] == "job" && parts[2] == "logs":
		return shape{"job_id": '"', "lines": '[', "total_lines": '0'}, true
	}
	return nil, false
}

// checkBody reports whether body is one JSON object of the widget's shape.
func checkBody(path string, body []byte) error {
	sh, ok := shapeFor(path)
	if !ok {
		return fmt.Errorf("%s: no known widget shape", path)
	}
	var obj map[string]firstByte
	if err := json.Unmarshal(body, &obj); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	for key, kind := range sh {
		got, ok := obj[key]
		if !ok {
			return fmt.Errorf("%s: missing %q", path, key)
		}
		if byte(got) != kind && !(kind == '[' && got == 'n') {
			return fmt.Errorf("%s: %q starts with %q, want %q", path, key, byte(got), kind)
		}
	}
	return nil
}

// firstByte decodes a JSON value into the kind byte of shape: json.Unmarshal
// still validates the whole document, but no value is copied.
type firstByte byte

func (f *firstByte) UnmarshalJSON(b []byte) error {
	switch c := b[0]; {
	case c == '-' || (c >= '0' && c <= '9'):
		*f = '0'
	case c == 'f':
		*f = 't'
	default:
		*f = firstByte(c)
	}
	return nil
}

// captured is one 200 body kept for checking after its page completes, so
// the check's own cost stays out of the page's time.
type captured struct {
	path string
	body []byte
}

// checker is the output check on every request the browsers make: each 200
// body must be JSON of its widget's shape, and a 304 may only answer a
// request that sent the ETag the client holds for that URL. It also times
// each request from the transport's view (request written to body closed).
type checker struct {
	inner http.RoundTripper

	mu      sync.Mutex
	held    map[string]string     // user + " " + URL -> ETag the client cache holds
	pending map[string][]captured // user -> 200 bodies not yet checked
	errs    []string              // first few failures, for the log

	failures    atomic.Int64
	requests    atomic.Int64
	transportNS atomic.Int64
}

func newChecker(inner http.RoundTripper) *checker {
	return &checker{inner: inner, held: map[string]string{}, pending: map[string][]captured{}}
}

// fail counts a failed check and logs it.
func (c *checker) fail(err error) {
	c.failures.Add(1)
	c.note(err)
}

// note logs err among the first few failures of the run.
func (c *checker) note(err error) {
	c.mu.Lock()
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
	c.mu.Unlock()
}

// forget records that the client cache now holds a copy of uri with no
// ETag (an event stream wrote it).
func (c *checker) forget(user, uri string) {
	c.mu.Lock()
	delete(c.held, user+" "+uri)
	c.mu.Unlock()
}

// RoundTrip implements http.RoundTripper.
func (c *checker) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/api/events" {
		return c.inner.RoundTrip(req)
	}
	start := time.Now()
	user := req.Header.Get(auth.UserHeader)
	key := user + " " + req.URL.RequestURI()
	sent := req.Header.Get("If-None-Match")
	resp, err := c.inner.RoundTrip(req)
	if err != nil {
		c.transportNS.Add(int64(time.Since(start)))
		return nil, err
	}
	c.requests.Add(1)
	body := &timedBody{rc: resp.Body, c: c, start: start}
	switch resp.StatusCode {
	case http.StatusNotModified:
		c.mu.Lock()
		held := c.held[key]
		c.mu.Unlock()
		if sent == "" || sent != held {
			c.fail(fmt.Errorf("%s: 304 for If-None-Match %q, client holds %q", key, sent, held))
		}
	case http.StatusOK:
		c.mu.Lock()
		c.held[key] = resp.Header.Get("ETag")
		c.mu.Unlock()
		if resp.ContentLength > 0 {
			body.buf.Grow(int(resp.ContentLength))
		}
		body.keep = func(b []byte) {
			c.mu.Lock()
			c.pending[user] = append(c.pending[user], captured{path: req.URL.Path, body: b})
			c.mu.Unlock()
		}
	}
	resp.Body = body
	return resp, nil
}

// checkPending checks the 200 bodies user's browser received since the
// last call and returns how many failed.
func (c *checker) checkPending(user string) int {
	c.mu.Lock()
	list := c.pending[user]
	delete(c.pending, user)
	c.mu.Unlock()
	bad := 0
	for _, p := range list {
		if err := checkBody(p.path, p.body); err != nil {
			c.fail(err)
			bad++
		}
	}
	return bad
}

// timedBody copies a 200 body as the browser reads it, and stops the
// request's clock when the browser closes it.
type timedBody struct {
	rc    io.ReadCloser
	c     *checker
	start time.Time
	keep  func([]byte)
	buf   bytes.Buffer
	done  bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if n > 0 && b.keep != nil {
		b.buf.Write(p[:n])
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.rc.Close()
	if !b.done {
		b.done = true
		b.c.transportNS.Add(int64(time.Since(b.start)))
		if b.keep != nil {
			b.keep(b.buf.Bytes())
		}
	}
	return err
}

// postChecks are the checks a run makes after its phases, with the
// simulated clock held still.
func postChecks(def workloadDef) []func(*stack, *driver) error {
	checks := []func(*stack, *driver) error{checkMyJobsTotal}
	if usesREST(def.backend) {
		checks = append(checks, checkBackendsAgree)
	}
	return checks
}

// checkMyJobsTotal compares the My Jobs total the dashboard serves with the
// row count of a direct sacct call for the same user and window.
func checkMyJobsTotal(st *stack, d *driver) error {
	name := st.env.UserNames[0]
	user, ok := st.env.Users.Lookup(name)
	if !ok {
		return fmt.Errorf("my jobs total: unknown user %s", name)
	}
	req, err := http.NewRequest(http.MethodGet, st.baseURL+"/api/myjobs?range=7d&limit=1", nil)
	if err != nil {
		return err
	}
	req.Header.Set(auth.UserHeader, name)
	resp, err := (&http.Client{Transport: d.tr}).Do(req)
	if err != nil {
		return fmt.Errorf("my jobs total: %w", err)
	}
	defer resp.Body.Close()
	var got struct {
		Total int `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("my jobs total: status %d, decode: %v", resp.StatusCode, err)
	}
	now := st.env.Clock.Now()
	rows, err := slurmcli.Sacct(st.env.Runner, slurmcli.SacctOptions{
		Accounts: user.Accounts, AllUsers: true, Start: now.Add(-7 * 24 * time.Hour), End: now,
	})
	if err != nil {
		return fmt.Errorf("my jobs total: sacct: %w", err)
	}
	if got.Total != len(rows) {
		return fmt.Errorf("my jobs total: dashboard %d, sacct %d rows", got.Total, len(rows))
	}
	return nil
}

// checkBackendsAgree serves a sample of the cluster-churn routes from two
// fresh servers over the churned cluster, one reading Slurm through the
// CLI and one through REST, and requires byte-identical answers.
func checkBackendsAgree(st *stack, _ *driver) error {
	env := st.env
	cli, err := newServer(env, st.newsURL, productionConfig(core.BackendConfig{}), nil)
	if err != nil {
		return err
	}
	defer cli.Close()
	rest, err := newServer(env, st.newsURL, productionConfig(core.BackendConfig{Slurmctld: core.BackendREST, Slurmdbd: core.BackendREST}), nil)
	if err != nil {
		return err
	}
	defer rest.Close()
	user := env.UserNames[0]
	routes := [][2]string{{user, "/api/cluster_status"}, {user, "/api/recent_jobs"}, {user, "/api/system_status"}}
	nodes := env.Cluster.Ctl.Nodes()
	for _, n := range []int{0, len(nodes) / 2, len(nodes) - 1} {
		routes = append(routes, [2]string{user, "/api/node/" + nodes[n].Name}, [2]string{user, "/api/node/" + nodes[n].Name + "/jobs"})
	}
	for _, j := range env.Cluster.Ctl.Jobs(slurm.LiveJobFilter{Limit: 3}) {
		routes = append(routes, [2]string{staffUser, "/api/job/" + strconv.FormatInt(int64(j.ID), 10)})
	}
	for _, rt := range routes {
		a, b := serveOnce(cli, rt[0], rt[1]), serveOnce(rest, rt[0], rt[1])
		if a.Code != http.StatusOK || a.Code != b.Code || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			return fmt.Errorf("backends differ on %s as %s: cli %d (%d bytes), rest %d (%d bytes)",
				rt[1], rt[0], a.Code, a.Body.Len(), b.Code, b.Body.Len())
		}
	}
	return nil
}

func serveOnce(h http.Handler, user, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set(auth.UserHeader, user)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}
