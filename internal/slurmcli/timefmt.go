package slurmcli

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// slurmTimeLayout is the timestamp format Slurm commands print.
const slurmTimeLayout = "2006-01-02T15:04:05"

// FormatTime renders t the way Slurm prints timestamps; the zero time prints
// as "Unknown", matching squeue/sacct output for unset start/end times.
func FormatTime(t time.Time) string {
	var buf [32]byte
	return string(appendTime(buf[:0], t))
}

// appendTime appends FormatTime(t) to b.
func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, "Unknown"...)
	}
	return t.UTC().AppendFormat(b, slurmTimeLayout)
}

// ParseTime is the inverse of FormatTime. "Unknown", "N/A", "None" and the
// empty string all parse to the zero time.
func ParseTime(s string) (time.Time, error) {
	switch s {
	case "", "Unknown", "N/A", "None", "NONE":
		return time.Time{}, nil
	}
	t, err := time.Parse(slurmTimeLayout, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("slurmcli: bad timestamp %q: %v", s, err)
	}
	return t.UTC(), nil
}

// FormatDuration renders d in Slurm's elapsed format: [D-]HH:MM:SS.
func FormatDuration(d time.Duration) string {
	var buf [32]byte
	return string(appendDuration(buf[:0], d))
}

// appendDuration appends FormatDuration(d) to b.
func appendDuration(b []byte, d time.Duration) []byte {
	if d < 0 {
		d = 0
	}
	total := int64(d / time.Second)
	days := total / 86400
	total %= 86400
	if days > 0 {
		b = strconv.AppendInt(b, days, 10)
		b = append(b, '-')
	}
	b = append2Digits(b, total/3600)
	b = append(b, ':')
	b = append2Digits(b, (total%3600)/60)
	b = append(b, ':')
	return append2Digits(b, total%60)
}

// append2Digits appends n, which is below 100, as two digits.
func append2Digits(b []byte, n int64) []byte {
	return append(b, byte('0'+n/10), byte('0'+n%10))
}

// ParseDuration is the inverse of FormatDuration. It also accepts Slurm's
// MM:SS short form and "UNLIMITED"/"INVALID" (both parse to zero).
func ParseDuration(s string) (time.Duration, error) {
	switch s {
	case "", "UNLIMITED", "INVALID", "Partition_Limit", "NOT_SET":
		return 0, nil
	}
	days := int64(0)
	if d, rest, ok := strings.Cut(s, "-"); ok {
		n, err := strconv.ParseInt(d, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("slurmcli: bad duration %q: %v", s, err)
		}
		days = n
		s = rest
	}
	// [HH:]MM:SS: two or three colon-separated parts.
	first, rest, ok := strings.Cut(s, ":")
	second, third, three := strings.Cut(rest, ":")
	if !ok || strings.Contains(third, ":") {
		return 0, fmt.Errorf("slurmcli: bad duration %q", s)
	}
	var h, m, sec int64
	var err error
	if three {
		if h, err = strconv.ParseInt(first, 10, 64); err == nil {
			if m, err = strconv.ParseInt(second, 10, 64); err == nil {
				sec, err = strconv.ParseInt(third, 10, 64)
			}
		}
	} else if m, err = strconv.ParseInt(first, 10, 64); err == nil {
		sec, err = strconv.ParseInt(rest, 10, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("slurmcli: bad duration %q: %v", s, err)
	}
	return time.Duration(days*86400+h*3600+m*60+sec) * time.Second, nil
}

// FormatMem renders a memory size in MiB the way Slurm prints ReqMem, using
// G when the value is an exact number of GiB.
func FormatMem(mb int64) string {
	var buf [24]byte
	return string(appendMem(buf[:0], mb))
}

// appendMem appends FormatMem(mb) to b.
func appendMem(b []byte, mb int64) []byte {
	if mb >= 1024 && mb%1024 == 0 {
		return append(strconv.AppendInt(b, mb/1024, 10), 'G')
	}
	return append(strconv.AppendInt(b, mb, 10), 'M')
}

// ParseMem parses "8000M" / "16G" / bare MiB counts.
func ParseMem(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'M', 'm':
		s = s[:len(s)-1]
	case 'G', 'g':
		s = s[:len(s)-1]
		mult = 1024
	case 'T', 't':
		s = s[:len(s)-1]
		mult = 1024 * 1024
	}
	// Slurm sometimes prints fractional gigabytes (e.g. "1.50G").
	if strings.Contains(s, ".") {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("slurmcli: bad memory %q: %v", s, err)
		}
		return int64(f * float64(mult)), nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("slurmcli: bad memory %q: %v", s, err)
	}
	return n * mult, nil
}
