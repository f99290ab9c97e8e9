package slurmcli

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The references below are the fmt- and strings.Split-based forms that the
// append formatters and the Cut-based ParseDuration replaced.

func referenceFormatDuration(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	total := int64(d / time.Second)
	days := total / 86400
	total %= 86400
	h, m, s := total/3600, (total%3600)/60, total%60
	if days > 0 {
		return fmt.Sprintf("%d-%02d:%02d:%02d", days, h, m, s)
	}
	return fmt.Sprintf("%02d:%02d:%02d", h, m, s)
}

func referenceFormatMem(mb int64) string {
	if mb >= 1024 && mb%1024 == 0 {
		return fmt.Sprintf("%dG", mb/1024)
	}
	return fmt.Sprintf("%dM", mb)
}

func referenceParseDuration(s string) (time.Duration, error) {
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
	parts := strings.Split(s, ":")
	var h, m, sec int64
	var err error
	switch len(parts) {
	case 3:
		if h, err = strconv.ParseInt(parts[0], 10, 64); err == nil {
			if m, err = strconv.ParseInt(parts[1], 10, 64); err == nil {
				sec, err = strconv.ParseInt(parts[2], 10, 64)
			}
		}
	case 2:
		if m, err = strconv.ParseInt(parts[0], 10, 64); err == nil {
			sec, err = strconv.ParseInt(parts[1], 10, 64)
		}
	default:
		return 0, fmt.Errorf("slurmcli: bad duration %q", s)
	}
	if err != nil {
		return 0, fmt.Errorf("slurmcli: bad duration %q: %v", s, err)
	}
	return time.Duration(days*86400+h*3600+m*60+sec) * time.Second, nil
}

// TestFormattersMatchReference checks FormatDuration, FormatMem and
// FormatTime, and their append forms after a non-empty prefix, against the
// fmt-based references over random values: negative, zero, multi-day and
// near-overflow durations; negative and exact-GiB sizes; zero and non-UTC
// times.
func TestFormattersMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	zone := time.FixedZone("X", -5*3600)
	for i := 0; i < 20000; i++ {
		var d time.Duration
		switch r.Intn(4) {
		case 0:
			d = time.Duration(r.Int63())
		case 1:
			d = -time.Duration(r.Int63n(1 << 40))
		default:
			d = time.Duration(r.Int63n(40 * 86400 * 1e9))
		}
		if got, want := FormatDuration(d), referenceFormatDuration(d); got != want {
			t.Fatalf("FormatDuration(%d) = %q, want %q", d, got, want)
		}
		if got := string(appendDuration([]byte("t="), d)); got != "t="+referenceFormatDuration(d) {
			t.Fatalf("appendDuration(%d) = %q", d, got)
		}
		mb := r.Int63n(1<<20) - 1024
		if r.Intn(2) == 0 {
			mb = (mb / 1024) * 1024
		}
		if got, want := FormatMem(mb), referenceFormatMem(mb); got != want {
			t.Fatalf("FormatMem(%d) = %q, want %q", mb, got, want)
		}
		if got := string(appendMem([]byte("m="), mb)); got != "m="+referenceFormatMem(mb) {
			t.Fatalf("appendMem(%d) = %q", mb, got)
		}
		ts := time.Unix(r.Int63n(4e9), r.Int63n(1e9)).In(zone)
		if r.Intn(10) == 0 {
			ts = time.Time{}
		}
		want := "Unknown"
		if !ts.IsZero() {
			want = ts.UTC().Format(slurmTimeLayout)
		}
		if got := FormatTime(ts); got != want {
			t.Fatalf("FormatTime(%v) = %q, want %q", ts, got, want)
		}
		if got := string(appendTime([]byte("s="), ts)); got != "s="+want {
			t.Fatalf("appendTime(%v) = %q", ts, got)
		}
	}
	// The string forms format on the stack: one allocation, the result.
	ts := time.Date(2026, 7, 1, 8, 30, 15, 0, time.UTC)
	for name, f := range map[string]func() string{
		"FormatTime":     func() string { return FormatTime(ts) },
		"FormatDuration": func() string { return FormatDuration(1234567 * time.Second) },
		"FormatMem":      func() string { return FormatMem(123456) },
	} {
		if n := testing.AllocsPerRun(100, func() { sinkString = f() }); n > 1 {
			t.Errorf("%s allocates %v times, want at most 1", name, n)
		}
	}
}

var sinkString string

// FuzzParseDuration checks ParseDuration against the strings.Split
// reference, value for value and error for error, on arbitrary input, and
// that a formatted duration parses back to itself. The seed corpus is in
// testdata/fuzz/FuzzParseDuration.
func FuzzParseDuration(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string, secs int64) {
		got, err := ParseDuration(s)
		want, wantErr := referenceParseDuration(s)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseDuration(%q) = %v, %v; reference %v, %v", s, got, err, want, wantErr)
		}
		if secs < 0 {
			secs = -(secs + 1)
		}
		d := time.Duration(secs%(1<<33)) * time.Second
		back, err := ParseDuration(FormatDuration(d))
		if err != nil || back != d {
			t.Fatalf("ParseDuration(FormatDuration(%v)) = %v, %v", d, back, err)
		}
	})
}
