package main

import (
	"math/rand"
	"sort"
	"strconv"
	"time"

	"ooddash/internal/browser"
	"ooddash/internal/core"
	"ooddash/internal/slurm"
	"ooddash/internal/workload"
)

// page is one page view: the browser that loads it and its widget fetches,
// in the order the page issues them.
type page struct {
	browser int
	widgets []browser.WidgetRequest
}

// planner yields page views in arrival order. Called with 0, 1, 2, ... it
// returns the same pages for the same seed and environment.
type planner func(i int) page

// workloadDef is one traffic mix. Its clock moves step every epoch
// arrivals; between epochs the load generator drains in-flight pages,
// applies the epoch's cluster writes and runs the push scheduler.
type workloadDef struct {
	name    string
	backend core.BackendConfig
	rate    float64       // open-loop page views per second
	epoch   int           // arrivals per simulated-clock step
	step    time.Duration // simulated time per epoch
	warm    int           // untimed arrivals after start-up
	settle  int           // further untimed arrivals before the measured phases
	closed  int           // arrivals in the closed-loop saturation phase
	streams int           // browsers holding /api/events
	churn   int           // jobs submitted per epoch (plus a scheduler tick)
	plan    func(env *workload.Env, seed int64) ([]string, planner)
}

var workloads = map[string]workloadDef{
	// Homepage reloads: the five Table 1 widgets for each of the 40 users
	// in turn. A browser comes back every 40 arrivals (10s simulated), so
	// most widgets paint from the client cache; recent jobs, system status
	// and accounts revalidate once their client TTL passes, and the server
	// refills squeue/sinfo/assoc once per TTL.
	"homepage": {
		name: "homepage", rate: 300, epoch: 20, step: 5 * time.Second, warm: 80, closed: 40000,
		plan: planHomepage,
	},
	// Cluster Status, node, recent-jobs and job pages for users and staff
	// with slurmctld on the REST backend (slurmdbd stays on the CLI). Every
	// epoch submits jobs and ticks the scheduler, and four browsers hold
	// event streams for recent jobs and system status that the push
	// scheduler feeds each epoch. One heavy user also opens My Jobs every
	// 100 arrivals (100s simulated, inside the 2-minute JobHistory TTL, so a
	// stable cache key would serve it from cache) and a job with its log
	// every 100. Its refills stay cached for the TTL plus the 15-minute
	// stale window; the settle arrivals let their number reach its steady
	// count before timing starts.
	"cluster_churn": {
		name: "cluster_churn", backend: core.BackendConfig{Slurmctld: core.BackendREST, Slurmdbd: core.BackendCLI},
		rate: 150, epoch: 20, step: 20 * time.Second, warm: 40, settle: 10 * myJobsEvery, closed: 4000, streams: 4, churn: 2,
		plan: planClusterChurn,
	},
}

// cycle returns a function mapping arrival i to a user index: users are
// visited in one seeded order, over and over, so each returns exactly every
// n arrivals and the share of views that find a widget stale in the client
// cache is the same for every seed.
func cycle(rng *rand.Rand, n int) func(i int) int {
	perm := rng.Perm(n)
	return func(i int) int { return perm[i%n] }
}

func planHomepage(env *workload.Env, seed int64) ([]string, planner) {
	users := env.UserNames
	next := cycle(rand.New(rand.NewSource(seed)), len(users))
	widgets := browser.HomepageWidgets()
	return users, func(i int) page { return page{browser: next(i), widgets: widgets} }
}

// myJobsEvery is the arrival period of the heavy user's My Jobs view and,
// offset by half, of its job drill-down.
const myJobsEvery = 100

// heavyUser picks the first user in a single group: its 7-day My Jobs
// table is a few MB. (A user in two groups sees both groups' jobs.)
func heavyUser(env *workload.Env) int {
	for i, name := range env.UserNames {
		if u, ok := env.Users.Lookup(name); ok && len(u.Accounts) == 1 {
			return i
		}
	}
	return 0
}

func planClusterChurn(env *workload.Env, seed int64) ([]string, planner) {
	users := append(append([]string(nil), env.UserNames...), staffUser)
	staff := len(users) - 1
	var nodes []string
	for _, n := range env.Cluster.Ctl.Nodes() {
		nodes = append(nodes, n.Name)
	}
	// Jobs live at start-up; they stay viewable after they finish, through
	// the accounting fallback of the job route.
	var jobs []string
	for _, j := range env.Cluster.Ctl.Jobs(slurm.LiveJobFilter{}) {
		if j.ArrayJobID == 0 {
			jobs = append(jobs, strconv.FormatInt(int64(j.ID), 10))
		}
	}
	sort.Strings(jobs)
	heavy := heavyUser(env)
	var logged []string // the heavy user's live jobs with a log file
	for _, j := range env.Cluster.Ctl.Jobs(slurm.LiveJobFilter{User: users[heavy]}) {
		if j.ArrayJobID == 0 && env.Logs.Exists(j.StdoutPath) {
			logged = append(logged, strconv.FormatInt(int64(j.ID), 10))
		}
	}
	sort.Strings(logged)
	rng := rand.New(rand.NewSource(seed))
	next := cycle(rng, len(users))
	return users, func(i int) page {
		// The mix is fixed by arrival index: of every 20 arrivals 7 are
		// Cluster Status, 5 node pages, 5 recent jobs and 3 job overviews,
		// less the two in 100 that are the heavy user's My Jobs pages.
		b := next(i)
		switch {
		case i%myJobsEvery == myJobsEvery/2:
			return page{browser: heavy, widgets: []browser.WidgetRequest{
				{Name: "my_jobs", Path: "/api/myjobs?range=7d"},
				{Name: "my_jobs_charts", Path: "/api/myjobs/charts?range=7d"}}}
		case i%myJobsEvery == 0 && len(logged) > 0:
			j := logged[rng.Intn(len(logged))]
			return page{browser: heavy, widgets: []browser.WidgetRequest{
				{Name: "job_overview", Path: "/api/job/" + j, TTL: 15 * time.Second},
				{Name: "job_logs", Path: "/api/job/" + j + "/logs"}}}
		}
		switch k := i % 20; {
		case k < 7:
			return page{browser: b, widgets: []browser.WidgetRequest{
				{Name: "cluster_status", Path: "/api/cluster_status", TTL: time.Minute}}}
		case k < 12:
			n := nodes[rng.Intn(len(nodes))]
			return page{browser: b, widgets: []browser.WidgetRequest{
				{Name: "node_overview", Path: "/api/node/" + n, TTL: 30 * time.Second},
				{Name: "node_jobs", Path: "/api/node/" + n + "/jobs", TTL: 30 * time.Second}}}
		case k < 17 || len(jobs) == 0:
			return page{browser: b, widgets: []browser.WidgetRequest{
				{Name: "recent_jobs", Path: "/api/recent_jobs", TTL: 30 * time.Second}}}
		default:
			return page{browser: staff, widgets: []browser.WidgetRequest{
				{Name: "job_overview", Path: "/api/job/" + jobs[rng.Intn(len(jobs))], TTL: 15 * time.Second}}}
		}
	}
}

// streamWidgets are the widgets the event-stream browsers subscribe to:
// the two homepage widgets cluster churn changes.
func streamWidgets() []browser.WidgetRequest {
	var out []browser.WidgetRequest
	for _, w := range browser.HomepageWidgets() {
		if w.Name == "recent_jobs" || w.Name == "system_status" {
			out = append(out, w)
		}
	}
	return out
}
