package slurm

import (
	"fmt"
	"strconv"
	"strings"
)

// TRES (Trackable RESources) describes a bundle of schedulable resources,
// mirroring Slurm's cpu/mem/gres accounting dimensions.
type TRES struct {
	CPUs  int   // CPU cores
	MemMB int64 // memory in MiB
	GPUs  int   // generic GPU resources (gres/gpu)
	Nodes int   // node count
}

// Add returns the elementwise sum of t and u.
func (t TRES) Add(u TRES) TRES {
	return TRES{
		CPUs:  t.CPUs + u.CPUs,
		MemMB: t.MemMB + u.MemMB,
		GPUs:  t.GPUs + u.GPUs,
		Nodes: t.Nodes + u.Nodes,
	}
}

// Sub returns the elementwise difference t - u.
func (t TRES) Sub(u TRES) TRES {
	return TRES{
		CPUs:  t.CPUs - u.CPUs,
		MemMB: t.MemMB - u.MemMB,
		GPUs:  t.GPUs - u.GPUs,
		Nodes: t.Nodes - u.Nodes,
	}
}

// Fits reports whether a request t fits within the free capacity u.
// The Nodes dimension is ignored: node fitting is decided per node.
func (t TRES) Fits(u TRES) bool {
	return t.CPUs <= u.CPUs && t.MemMB <= u.MemMB && t.GPUs <= u.GPUs
}

// IsZero reports whether every dimension is zero.
func (t TRES) IsZero() bool {
	return t.CPUs == 0 && t.MemMB == 0 && t.GPUs == 0 && t.Nodes == 0
}

// String renders the TRES in Slurm's compact "cpu=4,mem=8000M,gres/gpu=1,node=1"
// form, omitting zero-valued dimensions.
func (t TRES) String() string {
	var buf [64]byte
	return string(t.AppendTo(buf[:0]))
}

// AppendTo appends the TRES's String form to b.
func (t TRES) AppendTo(b []byte) []byte {
	start := len(b)
	dim := func(key string, n int64, unit string) {
		if n <= 0 {
			return
		}
		if len(b) > start {
			b = append(b, ',')
		}
		b = append(b, key...)
		b = strconv.AppendInt(b, n, 10)
		b = append(b, unit...)
	}
	dim("cpu=", int64(t.CPUs), "")
	dim("mem=", t.MemMB, "M")
	dim("gres/gpu=", int64(t.GPUs), "")
	dim("node=", int64(t.Nodes), "")
	return b
}

// ParseTRES parses the format produced by TRES.String. Unknown dimensions
// are ignored so output from newer Slurm versions still parses.
func ParseTRES(s string) (TRES, error) {
	var t TRES
	if strings.TrimSpace(s) == "" {
		return t, nil
	}
	// Every comma-separated component, the empty one after a trailing
	// comma included.
	for rest, more := s, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
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

// parseMemMB parses a Slurm memory size such as "8000M", "16G", or "512".
// A bare number is interpreted as MiB, matching Slurm's defaults.
func parseMemMB(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("slurm: empty memory size")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'K', 'k':
		// Round sub-MiB sizes up to 1 MiB.
		n, err := strconv.ParseInt(s[:len(s)-1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("slurm: bad memory size %q: %v", s, err)
		}
		if n == 0 {
			return 0, nil
		}
		mb := (n + 1023) / 1024
		if mb == 0 {
			mb = 1
		}
		return mb, nil
	case 'M', 'm':
		s = s[:len(s)-1]
	case 'G', 'g':
		s = s[:len(s)-1]
		mult = 1024
	case 'T', 't':
		s = s[:len(s)-1]
		mult = 1024 * 1024
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("slurm: bad memory size %q: %v", s, err)
	}
	return n * mult, nil
}
