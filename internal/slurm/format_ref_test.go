package slurm

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The references below are the fmt-based string formatters the append forms
// replaced; TestAppendFormsMatchReference holds the two byte-equal.

func referenceDisplayID(j *Job) string {
	if j.IsArrayTask() {
		return fmt.Sprintf("%d_%d", j.ArrayJobID, j.ArrayTaskID)
	}
	return fmt.Sprintf("%d", j.ID)
}

func referenceTRESString(t TRES) string {
	parts := make([]string, 0, 4)
	if t.CPUs > 0 {
		parts = append(parts, fmt.Sprintf("cpu=%d", t.CPUs))
	}
	if t.MemMB > 0 {
		parts = append(parts, fmt.Sprintf("mem=%dM", t.MemMB))
	}
	if t.GPUs > 0 {
		parts = append(parts, fmt.Sprintf("gres/gpu=%d", t.GPUs))
	}
	if t.Nodes > 0 {
		parts = append(parts, fmt.Sprintf("node=%d", t.Nodes))
	}
	return strings.Join(parts, ",")
}

func referenceNodeNameRange(names []string) string {
	if len(names) == 0 {
		return ""
	}
	if len(names) == 1 {
		return names[0]
	}
	type entry struct {
		prefix string
		num    int
		width  int
		raw    string
	}
	entries := make([]entry, 0, len(names))
	for _, name := range names {
		i := len(name)
		for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
			i--
		}
		e := entry{raw: name}
		if i < len(name) {
			e.prefix = name[:i]
			e.width = len(name) - i
			fmt.Sscanf(name[i:], "%d", &e.num)
		} else {
			e.prefix = name
			e.num = -1
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].prefix != entries[j].prefix {
			return entries[i].prefix < entries[j].prefix
		}
		return entries[i].num < entries[j].num
	})
	var out []string
	for i := 0; i < len(entries); {
		e := entries[i]
		if e.num < 0 {
			out = append(out, e.raw)
			i++
			continue
		}
		j := i
		for j+1 < len(entries) &&
			entries[j+1].prefix == e.prefix &&
			entries[j+1].width == e.width &&
			entries[j+1].num == entries[j].num+1 {
			j++
		}
		if j == i {
			out = append(out, e.raw)
		} else {
			out = append(out, fmt.Sprintf("%s[%0*d-%0*d]", e.prefix, e.width, e.num, e.width, entries[j].num))
		}
		i = j + 1
	}
	return strings.Join(out, ",")
}

// TestAppendFormsMatchReference checks DisplayID, TRES.String and
// NodeNameRange, and their append forms after a non-empty prefix, against
// the fmt-based references over random inputs: negative and zero TRES
// dimensions, array tasks, and node lists with duplicates, mixed widths,
// unnumbered, empty and all-digit names, numbers too long for an int and lists
// longer than the formatter's stack buffer.
func TestAppendFormsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	prefixes := []string{"c", "g", "node-", "", "x1y"}
	for i := 0; i < 5000; i++ {
		j := &Job{ID: JobID(r.Int63n(1 << 40))}
		if r.Intn(2) == 0 {
			j.ArrayJobID, j.ArrayTaskID = JobID(r.Int63n(1<<40)), r.Intn(5000)-1
		}
		if got, want := j.DisplayID(), referenceDisplayID(j); got != want {
			t.Fatalf("DisplayID = %q, want %q", got, want)
		}
		if got := string(j.AppendDisplayID([]byte("id="))); got != "id="+referenceDisplayID(j) {
			t.Fatalf("AppendDisplayID = %q", got)
		}
		tres := TRES{CPUs: r.Intn(200) - 20, MemMB: r.Int63n(1<<30) - 1000, GPUs: r.Intn(10) - 3, Nodes: r.Intn(10) - 3}
		if got, want := tres.String(), referenceTRESString(tres); got != want {
			t.Fatalf("%+v String = %q, want %q", tres, got, want)
		}
		if got := string(tres.AppendTo([]byte("x,"))); got != "x,"+referenceTRESString(tres) {
			t.Fatalf("%+v AppendTo = %q", tres, got)
		}
		names := make([]string, r.Intn(24))
		for k := range names {
			p := prefixes[r.Intn(len(prefixes))]
			switch r.Intn(12) {
			case 0:
				names[k] = p + "login"
			case 2:
				names[k] = "" // an empty name still takes its place in the list
			case 1:
				names[k] = p + "99999999999999999999" + fmt.Sprint(r.Intn(3))
			default:
				names[k] = fmt.Sprintf("%s%0*d", p, 1+r.Intn(3), r.Intn(12))
			}
		}
		want := referenceNodeNameRange(names)
		if got := NodeNameRange(names); got != want {
			t.Fatalf("NodeNameRange(%q) = %q, want %q", names, got, want)
		}
		if got := string(AppendNodeNameRange([]byte("n:"), names)); got != "n:"+want {
			t.Fatalf("AppendNodeNameRange(%q) = %q, want n:%q", names, got, want)
		}
	}
	// The string forms format on the stack: one allocation, the result.
	j := &Job{ID: 1234567, ArrayJobID: 1234560, ArrayTaskID: 7}
	tres := TRES{CPUs: 64, MemMB: 256000, GPUs: 4, Nodes: 2}
	nodes := []string{"c001", "c002", "c003", "c005", "g01", "login"}
	for name, f := range map[string]func() string{
		"DisplayID":     j.DisplayID,
		"TRES.String":   tres.String,
		"NodeNameRange": func() string { return NodeNameRange(nodes) },
	} {
		if n := testing.AllocsPerRun(100, func() { sinkString = f() }); n > 1 {
			t.Errorf("%s allocates %v times, want at most 1", name, n)
		}
	}
}

var sinkString string

// referenceParseTRES is ParseTRES as it was written with strings.Split.
func referenceParseTRES(s string) (TRES, error) {
	var t TRES
	if strings.TrimSpace(s) == "" {
		return t, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return TRES{}, fmt.Errorf("slurm: malformed TRES component %q", part)
		}
		switch key {
		case "cpu":
			n, err := strconv.Atoi(val)
			if err != nil {
				return TRES{}, fmt.Errorf("slurm: bad cpu count %q: %v", val, err)
			}
			t.CPUs = n
		case "mem":
			mb, err := parseMemMB(val)
			if err != nil {
				return TRES{}, err
			}
			t.MemMB = mb
		case "gres/gpu", "gpu":
			n, err := strconv.Atoi(val)
			if err != nil {
				return TRES{}, fmt.Errorf("slurm: bad gpu count %q: %v", val, err)
			}
			t.GPUs = n
		case "node":
			n, err := strconv.Atoi(val)
			if err != nil {
				return TRES{}, fmt.Errorf("slurm: bad node count %q: %v", val, err)
			}
			t.Nodes = n
		}
	}
	return t, nil
}

// FuzzParseTRES checks ParseTRES against the strings.Split reference, value
// for value and error for error, on arbitrary input, and that a formatted
// TRES parses back to itself with non-positive dimensions dropped. The seed
// corpus is in testdata/fuzz/FuzzParseTRES.
func FuzzParseTRES(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string, cpus, gpus, nodes int, mem int64) {
		got, err := ParseTRES(s)
		want, wantErr := referenceParseTRES(s)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseTRES(%q) = %+v, %v; reference %+v, %v", s, got, err, want, wantErr)
		}
		in := TRES{CPUs: cpus, GPUs: gpus, Nodes: nodes, MemMB: mem}
		back, err := ParseTRES(in.String())
		want = TRES{CPUs: max(cpus, 0), GPUs: max(gpus, 0), Nodes: max(nodes, 0), MemMB: max(mem, 0)}
		if err != nil || back != want {
			t.Fatalf("ParseTRES(%q) = %+v, %v; want %+v", in.String(), back, err, want)
		}
	})
}
