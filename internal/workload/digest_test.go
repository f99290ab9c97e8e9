package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"ooddash/internal/slurm"
)

// stateDigest is a SHA-256 over the state Build leaves in the simulated
// daemons: every accounting record, every live job, every node, every
// association, the event feed and the power counters. Two builds of one
// Spec agree on it exactly when the replay made the same decisions.
func stateDigest(tb testing.TB, env *Env) string {
	tb.Helper()
	cl := env.Cluster
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range []any{
		cl.DBD.Jobs(slurm.JobFilter{}, cl.Ctl.Now()),
		cl.Ctl.Jobs(slurm.LiveJobFilter{}),
		cl.Ctl.Nodes(),
		cl.DBD.Associations(),
		cl.Ctl.EventsSince(0, 0),
		cl.Ctl.LastEventSeq(),
		cl.Ctl.Power(),
	} {
		if err := enc.Encode(v); err != nil {
			tb.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// smallStateDigest pins Build(SmallSpec()). A change that moves it changes
// the generated environment: every scheduling decision, accounting record
// and event of the replay.
const smallStateDigest = "56ca2f6fcaf3b5aee7a7e2700dcd1ee3efa0cccd1ee955d38e25234dd7d44712"

func TestBuildStateDigest(t *testing.T) {
	if got := stateDigest(t, buildSmall(t)); got != smallStateDigest {
		t.Fatalf("Build(SmallSpec()) state digest = %s, want %s", got, smallStateDigest)
	}
}

// BenchmarkBuild times Build(DefaultSpec()), the setup every dashboard and
// perfbench run pays, and logs the state digest of the first build so two
// trees can be compared:
//
//	go test -run '^$' -bench Build -benchtime 1x -v ./internal/workload
func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, err := Build(DefaultSpec())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.StopTimer()
			b.Logf("Build(DefaultSpec()) state digest %s", stateDigest(b, env))
			b.StartTimer()
		}
	}
}
