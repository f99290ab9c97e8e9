package slurm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

func TestNodeEffectiveState(t *testing.T) {
	tests := []struct {
		name string
		node Node
		want NodeState
	}{
		{"idle", Node{CPUs: 8, State: NodeIdle}, NodeIdle},
		{"mixed", Node{CPUs: 8, State: NodeIdle, Alloc: TRES{CPUs: 4}}, NodeMixed},
		{"allocated", Node{CPUs: 8, State: NodeIdle, Alloc: TRES{CPUs: 8}}, NodeAllocated},
		{"drained-empty", Node{CPUs: 8, State: NodeIdle, Drain: true}, NodeDrained},
		{"draining-busy", Node{CPUs: 8, State: NodeIdle, Drain: true, Alloc: TRES{CPUs: 2}}, NodeDraining},
		{"down", Node{CPUs: 8, State: NodeDown, Drain: true}, NodeDown},
		{"maint", Node{CPUs: 8, State: NodeIdle, Maint: true}, NodeMaint},
	}
	for _, tc := range tests {
		if got := tc.node.EffectiveState(); got != tc.want {
			t.Errorf("%s: EffectiveState = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestNodeSchedulable(t *testing.T) {
	n := Node{CPUs: 8, State: NodeIdle}
	if !n.Schedulable() {
		t.Error("idle node should be schedulable")
	}
	n.Drain = true
	if n.Schedulable() {
		t.Error("draining node should not be schedulable")
	}
	n.Drain = false
	n.Maint = true
	if n.Schedulable() {
		t.Error("maint node should not be schedulable")
	}
	n.Maint = false
	n.State = NodeDown
	if n.Schedulable() {
		t.Error("down node should not be schedulable")
	}
}

func TestNodeFree(t *testing.T) {
	n := Node{CPUs: 128, MemMB: 256 * 1024, GPUs: 4, Alloc: TRES{CPUs: 100, MemMB: 1024, GPUs: 3}}
	free := n.Free()
	if free.CPUs != 28 || free.MemMB != 256*1024-1024 || free.GPUs != 1 {
		t.Fatalf("Free = %+v", free)
	}
}

func TestNodeClone(t *testing.T) {
	n := &Node{
		Name:        "a001",
		Partitions:  []string{"cpu"},
		Features:    []string{"milan"},
		RunningJobs: []JobID{1, 2},
		BootTime:    time.Now(),
	}
	cp := n.Clone()
	cp.Partitions[0] = "gpu"
	cp.RunningJobs[0] = 99
	if n.Partitions[0] != "cpu" || n.RunningJobs[0] != 1 {
		t.Fatal("Clone shares slices with original")
	}
}

func TestNodeNameRange(t *testing.T) {
	tests := []struct {
		in   []string
		want string
	}{
		{nil, ""},
		{[]string{"a001"}, "a001"},
		{[]string{"a001", "a002", "a003"}, "a[001-003]"},
		{[]string{"a003", "a001", "a002"}, "a[001-003]"},
		{[]string{"a001", "a003"}, "a001,a003"},
		{[]string{"a001", "a002", "b001"}, "a[001-002],b001"},
		{[]string{"login", "a001", "a002"}, "a[001-002],login"},
	}
	for _, tc := range tests {
		if got := NodeNameRange(tc.in); got != tc.want {
			t.Errorf("NodeNameRange(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestExpandNodeRange(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"a001", []string{"a001"}},
		{"a[001-003]", []string{"a001", "a002", "a003"}},
		{"a[001-002],b001", []string{"a001", "a002", "b001"}},
		{"a[001,005]", []string{"a001", "a005"}},
		{"login,a[001-002]", []string{"login", "a001", "a002"}},
	}
	for _, tc := range tests {
		got, err := ExpandNodeRange(tc.in)
		if err != nil {
			t.Fatalf("ExpandNodeRange(%q): %v", tc.in, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ExpandNodeRange(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := ExpandNodeRange("a[001-"); err == nil {
		t.Error("expected error for unterminated bracket")
	}
	// The largest bound expands to one name instead of wrapping around.
	maxName := "a" + strconv.Itoa(math.MaxInt)
	if got, err := ExpandNodeRange("a[" + maxName[1:] + "]"); err != nil || !reflect.DeepEqual(got, []string{maxName}) {
		t.Errorf("ExpandNodeRange at math.MaxInt = %v, %v", got, err)
	}
	// Bounds are plain decimal digits, and a ']' before the '[' does not
	// close it.
	for _, bad := range []string{"a[ 1]", "a[+1]", "a[1x]", "a[1-2-3]", "a[]", "a[1,]", "a]b[1", "a[99999999999999999999]"} {
		if got, err := ExpandNodeRange(bad); err == nil {
			t.Errorf("ExpandNodeRange(%q) = %v, want an error", bad, got)
		}
	}
}

func TestNodeListContains(t *testing.T) {
	tests := []struct {
		expr, name string
		want       bool
	}{
		{"a001", "a001", true},
		{"a001", "a01", false},
		{"a[001-003]", "a002", true},
		{"a[001-003]", "a2", false},
		{"a[001-003]", "a0002", false},
		{"a[001-003]", "a004", false},
		{"a[001-003]", "b002", false},
		{"login,a[001-002]", "login", true},
		{"a[001,005]", "a005", true},
		{"a[001,005]", "a003", false},
		// Suffixes wider than the pad print in full.
		{"c[8-10]", "c10", true},
		{"c[8-10]", "c9", true},
		{"c[8-10]", "c08", false},
		{"c[098-100]", "c100", true},
		{"c[98-100]", "c0100", false},
		{"c[0-0]", "c0", true},
		{"c[0-0]", "c00", false},
		{"c[5-3]", "c4", false},
		// A malformed list contains nothing, even after a match.
		{"a001,b[1-", "a001", false},
		{"a[001-003],b[x]", "a002", false},
		{"a[1]", "a99999999999999999999", false},
	}
	for _, tc := range tests {
		if got := NodeListContains(tc.expr, tc.name); got != tc.want {
			t.Errorf("NodeListContains(%q, %q) = %v, want %v", tc.expr, tc.name, got, tc.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		NodeListContains("a[001-128,200-256],b[01-16],login", "b12")
	}); allocs != 0 {
		t.Fatalf("NodeListContains allocates %v times per call, want 0", allocs)
	}
}

// FuzzNodeListContains checks NodeListContains against membership in
// ExpandNodeRange's list. Where ExpandNodeRange errors, no name is
// contained. The seed corpus is in testdata/fuzz/FuzzNodeListContains.
func FuzzNodeListContains(f *testing.F) {
	f.Fuzz(func(t *testing.T, expr, name string) {
		if expandsTooFar(expr) {
			t.Skip()
		}
		nodes, err := ExpandNodeRange(expr)
		got := NodeListContains(expr, name)
		if err != nil {
			if got {
				t.Fatalf("NodeListContains(%q, %q) = true, but ExpandNodeRange errors: %v", expr, name, err)
			}
			return
		}
		if want := slices.Contains(nodes, name); got != want {
			t.Fatalf("NodeListContains(%q, %q) = %v, want %v (expanded %v)", expr, name, got, want, nodes)
		}
	})
}

// expandsTooFar keeps fuzz inputs cheap to expand: no number with more than
// three significant digits, so no span lists more than a thousand names.
func expandsTooFar(expr string) bool {
	significant := 0
	for i := 0; i < len(expr); i++ {
		switch c := expr[i]; {
		case c == '0' && significant == 0:
		case c >= '0' && c <= '9':
			if significant++; significant > 3 {
				return true
			}
		default:
			significant = 0
		}
	}
	return len(expr) > 200
}

// Property: expanding a compressed range yields the original sorted set.
func TestNodeRangeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		seen := make(map[string]bool)
		var names []string
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("a%03d", 1+r.Intn(200))
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
		compressed := NodeNameRange(names)
		expanded, err := ExpandNodeRange(compressed)
		if err != nil {
			return false
		}
		if len(expanded) != len(names) {
			return false
		}
		back := make(map[string]bool, len(expanded))
		for _, e := range expanded {
			back[e] = true
		}
		for _, want := range names {
			if !back[want] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
