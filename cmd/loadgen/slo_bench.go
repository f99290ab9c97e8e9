// SLO benchmark (-slo): the regression harness for the live SLO engine,
// with two independent gates.
//
// Overhead gate: the hit-path request mix from the hotpath bench runs against
// two warmed in-process servers over one environment — one built with SLI
// recording disabled (core.SLOConfig.Disabled), one with it enabled. The
// difference in exact allocations per request is what error-budget
// accounting costs every production request; -max-slo-allocs fails the run
// if it exceeds that many allocs/op.
//
// Alerting gate: every scenario in the internal/chaos catalog replays
// in-process with the chaos-tuned objectives. Run.Execute already enforces
// each scenario's AlertExpectation (must-fire, must-resolve, and the
// nothing-else-may-fire sweep), so a scenario passes iff Execute returns
// nil; the report additionally records each rule's lifetime fired/resolved
// counts so a true-positive or false-positive regression is visible in the
// snapshot, not just in the exit code. login_rush runs with wall-clock
// sleeps and a tight fill cap like its drill, so injected stalls have real
// duration for the latency SLI.
//
// The report lands in BENCH_slo.json.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"ooddash/internal/chaos"
	"ooddash/internal/core"
)

// sloAlertRow is one burn-rate rule's lifetime outcome in one scenario.
type sloAlertRow struct {
	Rule     string `json:"rule"` // "objective/rule"
	Severity string `json:"severity"`
	State    string `json:"final_state"`
	Fired    uint64 `json:"fired_total"`
	Resolved uint64 `json:"resolved_total"`
}

// sloScenarioReport is one chaos scenario's alerting truth-table row.
type sloScenarioReport struct {
	Scenario    string        `json:"scenario"`
	MustFire    []string      `json:"must_fire,omitempty"`
	MustResolve []string      `json:"must_resolve,omitempty"`
	Alerts      []sloAlertRow `json:"alerts"`
	Pass        bool          `json:"pass"`
	Error       string        `json:"error,omitempty"`
}

// sloReport is the BENCH_slo.json snapshot.
type sloReport struct {
	Kind        string    `json:"kind"` // "loadgen_slo"
	GeneratedAt time.Time `json:"generated_at"`
	Seed        int64     `json:"seed"`

	RecordingOff hotpathPhase `json:"recording_off"`
	RecordingOn  hotpathPhase `json:"recording_on"`
	// AllocDelta is recording-on allocs/op minus recording-off: the hit-path
	// cost of SLI recording. The gate is about this number.
	AllocDelta    float64             `json:"slo_alloc_delta"`
	MaxSLOAllocs  float64             `json:"max_slo_allocs"`
	OverheadPass  bool                `json:"overhead_pass"`
	Scenarios     []sloScenarioReport `json:"scenarios"`
	ScenariosPass bool                `json:"scenarios_pass"`
	Pass          bool                `json:"pass"`
}

// runSLOOverhead measures the hit-path allocation cost of SLI recording:
// two warmed encode-once servers over one environment, same request mix,
// recording off then on.
func runSLOOverhead(requests int) (off, on hotpathPhase, err error) {
	st, err := buildPushStack()
	if err != nil {
		return off, on, fmt.Errorf("stack: %w", err)
	}
	defer st.close()
	server := st.server
	server.SetTraceSample(-1) // tracing out of the comparison entirely
	offServer, err := st.env.NewServerConfig(st.newsURL, core.Config{
		SLO:   core.SLOConfig{Disabled: true},
		Trace: core.TraceConfig{Sample: -1},
	})
	if err != nil {
		return off, on, fmt.Errorf("recording-off server: %w", err)
	}
	defer offServer.Close()

	mix, err := hotpathMix(st.env.UserNames)
	if err != nil {
		return off, on, err
	}
	rounds := requests / len(mix)
	if rounds < 1 {
		rounds = 1
	}

	if err := warmMix(offServer, mix); err != nil {
		return off, on, err
	}
	off, err = runHotpathPhase(offServer, "slo_recording_off", mix, rounds, http.StatusOK)
	if err != nil {
		return off, on, err
	}

	if err := warmMix(server, mix); err != nil {
		return off, on, err
	}
	on, err = runHotpathPhase(server, "slo_recording_on", mix, rounds, http.StatusOK)
	return off, on, err
}

// runSLOScenario replays one catalog scenario and reports its alert truth
// table. Execute enforces the scenario's AlertExpectation, so pass is
// simply "Execute returned nil".
func runSLOScenario(sc chaos.Scenario, seed int64) sloScenarioReport {
	rep := sloScenarioReport{
		Scenario:    sc.Name,
		MustFire:    sc.Alerts.MustFire,
		MustResolve: sc.Alerts.MustResolve,
	}
	opts := chaos.Options{Seed: seed}
	if sc.Name == "login_rush" {
		// Like the drill: injected stalls need real wall duration for the
		// latency SLI, and the tight fill cap makes overflow 503s happen.
		opts.FillCap = 8
		opts.Sleep = time.Sleep
	}
	r, err := chaos.NewRun(opts)
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	defer r.Close()

	execErr := r.Execute(sc)
	for _, o := range r.Server.SLO().Status().Objectives {
		for _, a := range o.Alerts {
			rep.Alerts = append(rep.Alerts, sloAlertRow{
				Rule:     o.Name + "/" + a.Rule,
				Severity: a.Severity,
				State:    a.State,
				Fired:    a.Fired,
				Resolved: a.Resolved,
			})
		}
	}
	if execErr != nil {
		rep.Error = execErr.Error()
		return rep
	}
	rep.Pass = true
	return rep
}

// runSLOBench runs both gates, writes the snapshot, and exits non-zero if
// either fails.
func runSLOBench(requests int, seed int64, benchOut string, maxSLOAllocs float64) {
	off, on, err := runSLOOverhead(requests)
	if err != nil {
		log.Fatalf("slo bench: overhead: %v", err)
	}
	delta := on.AllocsPerOp - off.AllocsPerOp
	overheadPass := maxSLOAllocs < 0 || delta <= maxSLOAllocs

	fmt.Printf("\n%-18s %9s %10s %10s %12s\n", "phase", "requests", "p50(ms)", "p95(ms)", "allocs/op")
	for _, p := range []hotpathPhase{off, on} {
		fmt.Printf("%-18s %9d %10.3f %10.3f %12.2f\n", p.Mode, p.Requests, p.P50Ms, p.P95Ms, p.AllocsPerOp)
	}
	fmt.Printf("\nSLI recording overhead: %+.2f allocs/op (gate: <= %.2f)\n", delta, maxSLOAllocs)

	scenariosPass := true
	var scenarios []sloScenarioReport
	for _, sc := range chaos.Catalog() {
		rep := runSLOScenario(sc, seed)
		scenarios = append(scenarios, rep)
		verdict := "PASS"
		if !rep.Pass {
			verdict = "FAIL"
			scenariosPass = false
		}
		fired := 0
		for _, a := range rep.Alerts {
			if a.Fired > 0 {
				fired++
			}
		}
		fmt.Printf("%-20s %s  rules fired: %d  must-fire: %v", sc.Name, verdict, fired, rep.MustFire)
		if rep.Error != "" {
			fmt.Printf("  (%s)", rep.Error)
		}
		fmt.Println()
	}

	pass := overheadPass && scenariosPass
	if benchOut != "" {
		rep := sloReport{
			Kind:          "loadgen_slo",
			GeneratedAt:   time.Now().UTC(),
			Seed:          seed,
			RecordingOff:  off,
			RecordingOn:   on,
			AllocDelta:    delta,
			MaxSLOAllocs:  maxSLOAllocs,
			OverheadPass:  overheadPass,
			Scenarios:     scenarios,
			ScenariosPass: scenariosPass,
			Pass:          pass,
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("encoding slo snapshot: %v", err)
		}
		if err := os.WriteFile(benchOut, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("writing %s: %v", benchOut, err)
		}
		log.Printf("slo bench snapshot written to %s", benchOut)
	}
	if !overheadPass {
		log.Printf("FAIL: SLI recording adds %.2f allocs/op, above -max-slo-allocs %.2f", delta, maxSLOAllocs)
	}
	if !scenariosPass {
		log.Printf("FAIL: one or more chaos scenarios violated their alert expectations")
	}
	if !pass {
		os.Exit(1)
	}
}
