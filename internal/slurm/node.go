package slurm

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Node is the controller's record of one compute node.
type Node struct {
	// Configuration.
	Name       string
	Partitions []string
	CPUs       int
	MemMB      int64
	GPUs       int
	GPUType    string // e.g. "a100"; empty when GPUs == 0
	Features   []string
	OS         string
	Arch       string
	BootTime   time.Time

	// Dynamic state.
	State       NodeState
	Drain       bool   // node is draining/drained on top of its base state
	Maint       bool   // node is in a maintenance reservation
	StateReason string // operator-provided reason for DOWN/DRAIN
	Alloc       TRES   // resources currently allocated to jobs
	CPULoad     float64
	LastBusy    time.Time
	RunningJobs []JobID

	// Power state (see power.go): an energy-saving shutdown, an in-progress
	// boot after a power-up request, or a health-check reboot cycle. At most
	// one of the three is set; PowerReadyAt is when an in-progress transition
	// completes.
	PoweredDown  bool
	PoweringUp   bool
	Rebooting    bool
	PowerReadyAt time.Time
}

// Free returns the node's unallocated capacity.
func (n *Node) Free() TRES {
	return TRES{
		CPUs:  n.CPUs - n.Alloc.CPUs,
		MemMB: n.MemMB - n.Alloc.MemMB,
		GPUs:  n.GPUs - n.Alloc.GPUs,
	}
}

// EffectiveState combines the base state with drain/maint flags into the
// single state string sinfo and the dashboard's Cluster Status grid show.
func (n *Node) EffectiveState() NodeState {
	switch {
	case n.State == NodeDown:
		return NodeDown
	case n.Rebooting:
		return NodeReboot
	case n.PoweredDown:
		return NodePoweredDown
	case n.PoweringUp:
		return NodePoweringUp
	case n.Maint:
		return NodeMaint
	case n.Drain && n.Alloc.CPUs > 0:
		return NodeDraining
	case n.Drain:
		return NodeDrained
	case n.Alloc.CPUs == 0:
		return NodeIdle
	case n.Alloc.CPUs >= n.CPUs:
		return NodeAllocated
	default:
		return NodeMixed
	}
}

// Schedulable reports whether the scheduler may place new work here.
func (n *Node) Schedulable() bool {
	return n.State.Schedulable() && !n.Drain && !n.Maint && n.State != NodeDown &&
		!n.PoweredDown && !n.PoweringUp && !n.Rebooting
}

// HasFeatures reports whether the node advertises every feature in the
// comma-separated AND list (empty list matches everything).
func (n *Node) HasFeatures(constraint string) bool {
	if constraint == "" {
		return true
	}
	for rest := constraint; rest != ""; {
		var want string
		want, rest, _ = strings.Cut(rest, ",")
		if want = strings.TrimSpace(want); want == "" {
			continue
		}
		found := false
		for _, f := range n.Features {
			if f == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// HasPartition reports whether the node belongs to the named partition.
func (n *Node) HasPartition(name string) bool {
	for _, p := range n.Partitions {
		if p == name {
			return true
		}
	}
	return false
}

// Clone returns a deep copy safe for concurrent readers.
func (n *Node) Clone() *Node {
	cp := *n
	cp.Partitions = append([]string(nil), n.Partitions...)
	cp.Features = append([]string(nil), n.Features...)
	cp.RunningJobs = append([]JobID(nil), n.RunningJobs...)
	return &cp
}

// removeJob drops id from the node's running-job list.
func (n *Node) removeJob(id JobID) {
	for i, j := range n.RunningJobs {
		if j == id {
			n.RunningJobs = append(n.RunningJobs[:i], n.RunningJobs[i+1:]...)
			return
		}
	}
}

// NodeNameRange compresses a sorted list of node names that share a common
// prefix into Slurm's bracketed hostlist form, e.g. ["a001","a002","a003"]
// becomes "a[001-003]". Names that don't fit the pattern are listed verbatim.
func NodeNameRange(names []string) string {
	if len(names) == 1 {
		return names[0]
	}
	var buf [64]byte
	return string(AppendNodeNameRange(buf[:0], names))
}

// AppendNodeNameRange appends NodeNameRange(names) to b.
func AppendNodeNameRange(b []byte, names []string) []byte {
	if len(names) == 1 {
		return append(b, names[0]...)
	}
	type entry struct {
		prefix string
		num    int
		width  int
		raw    string
	}
	var buf [16]entry // a job's node list rarely needs more; longer ones grow
	entries := buf[:0]
	for _, name := range names {
		i := len(name)
		for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
			i--
		}
		e := entry{raw: name}
		if i < len(name) {
			e.prefix = name[:i]
			e.width = len(name) - i
			// A suffix too long for an int counts as 0, as fmt.Sscanf left it.
			if n, err := strconv.Atoi(name[i:]); err == nil {
				e.num = n
			}
		} else {
			e.prefix = name
			e.num = -1
		}
		entries = append(entries, e)
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if a.prefix != b.prefix {
			return strings.Compare(a.prefix, b.prefix)
		}
		return cmp.Compare(a.num, b.num)
	})
	for i := 0; i < len(entries); {
		if i > 0 {
			b = append(b, ',')
		}
		e := entries[i]
		if e.num < 0 {
			b = append(b, e.raw...)
			i++
			continue
		}
		// Extend a run of consecutive numbers with the same prefix and width.
		j := i
		for j+1 < len(entries) &&
			entries[j+1].prefix == e.prefix &&
			entries[j+1].width == e.width &&
			entries[j+1].num == entries[j].num+1 {
			j++
		}
		if j == i {
			b = append(b, e.raw...)
		} else {
			b = append(b, e.prefix...)
			b = append(b, '[')
			b = appendPadded(b, e.num, e.width)
			b = append(b, '-')
			b = appendPadded(b, entries[j].num, e.width)
			b = append(b, ']')
		}
		i = j + 1
	}
	return b
}

// appendPadded appends the non-negative n zero-padded to width digits,
// like fmt's %0*d.
func appendPadded(b []byte, n, width int) []byte {
	for d := digits(n); d < width; d++ {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(n), 10)
}

// digits returns the number of decimal digits of the non-negative n.
func digits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// ExpandNodeRange is the inverse of NodeNameRange: it expands a hostlist of
// comma-separated plain names and bracketed ranges ("g[001-003],login")
// into node names. A range bound is a run of decimal digits whose length
// sets the zero-padding width; numbers wider than the pad print in full, so
// "c[8-10]" is c8, c9, c10.
func ExpandNodeRange(expr string) ([]string, error) {
	var out []string
	for len(expr) > 0 {
		prefix, spans, bracket, rest, ok := cutHostlistElem(expr)
		if !ok {
			return nil, fmt.Errorf("slurm: unterminated bracket in hostlist %q", expr)
		}
		expr = rest
		if !bracket {
			out = append(out, prefix)
			continue
		}
		for more := true; more; {
			var span string
			span, spans, more = strings.Cut(spans, ",")
			lo, hi, width, ok := parseHostSpan(span)
			if !ok {
				return nil, fmt.Errorf("slurm: bad hostlist range %q", span)
			}
			for n := lo; n <= hi; n++ {
				out = append(out, fmt.Sprintf("%s%0*d", prefix, width, n))
				if n == hi {
					break // n++ would wrap at math.MaxInt
				}
			}
		}
	}
	return out, nil
}

// NodeListContains reports whether name is one of the nodes ExpandNodeRange
// lists for expr, without expanding it or allocating. A malformed hostlist
// contains no node, as ExpandNodeRange returns an error for it.
func NodeListContains(expr, name string) bool {
	found := false
	for len(expr) > 0 {
		prefix, spans, bracket, rest, ok := cutHostlistElem(expr)
		if !ok {
			return false
		}
		expr = rest
		if !bracket {
			found = found || prefix == name
			continue
		}
		for more := true; more; {
			var span string
			span, spans, more = strings.Cut(spans, ",")
			lo, hi, width, ok := parseHostSpan(span)
			if !ok {
				return false
			}
			found = found || inHostRange(name, prefix, lo, hi, width)
		}
	}
	return found
}

// cutHostlistElem splits the first element off a hostlist: a plain name up
// to the next comma, or a prefix and the comma-separated span list inside
// the brackets that follow it. ok is false for an unterminated bracket.
func cutHostlistElem(expr string) (prefix, spans string, bracket bool, rest string, ok bool) {
	br := strings.IndexByte(expr, '[')
	comma := strings.IndexByte(expr, ',')
	if br == -1 || (comma != -1 && comma < br) {
		if comma == -1 {
			return expr, "", false, "", true
		}
		return expr[:comma], "", false, expr[comma+1:], true
	}
	end := strings.IndexByte(expr[br:], ']')
	if end == -1 {
		return "", "", false, "", false
	}
	end += br
	return expr[:br], expr[br+1 : end], true, strings.TrimPrefix(expr[end+1:], ","), true
}

// parseHostSpan parses one bracket span, "7" or "001-010": its bounds and
// the zero-padding width its lower bound is written with.
func parseHostSpan(span string) (lo, hi, width int, ok bool) {
	loStr, hiStr, hasHi := strings.Cut(span, "-")
	if lo, ok = parseHostNum(loStr); !ok {
		return 0, 0, 0, false
	}
	hi = lo
	if hasHi {
		if hi, ok = parseHostNum(hiStr); !ok {
			return 0, 0, 0, false
		}
	}
	return lo, hi, len(loStr), true
}

// parseHostNum parses a non-empty run of decimal digits that fits an int.
func parseHostNum(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		d := int(s[i]) - '0'
		if d < 0 || d > 9 || n > (math.MaxInt-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// inHostRange reports whether name is prefix followed by a number in
// [lo, hi] printed zero-padded to width: one of the names the span expands
// to.
func inHostRange(name, prefix string, lo, hi, width int) bool {
	if !strings.HasPrefix(name, prefix) {
		return false
	}
	digits := name[len(prefix):]
	// Padding only ever adds zeros up to width, so a longer suffix is the
	// number's own digits and cannot start with a zero.
	if len(digits) < width || (len(digits) > width && digits[0] == '0') {
		return false
	}
	n, ok := parseHostNum(digits)
	return ok && lo <= n && n <= hi
}
