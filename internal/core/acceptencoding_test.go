package core

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// qvalueRef is the RFC 9110 qvalue grammar behind a "q=" weight name.
var qvalueRef = regexp.MustCompile(`^[qQ]=(0(\.[0-9]{0,3})?|1(\.0{0,3})?)$`)

// acceptsGzipRef is the plain reading of Accept-Encoding that acceptsGzip
// must agree with: split the list on commas and each element on the first
// ';'; an element with a weight counts as refused unless the weight matches
// the qvalue grammar and parses above zero. gzip decides when listed (any
// refusal wins); otherwise "*" decides the same way.
func acceptsGzipRef(header string) bool {
	var gzipListed, gzipRefused, starListed, starRefused bool
	for _, elem := range strings.Split(header, ",") {
		parts := strings.SplitN(elem, ";", 2)
		coding := strings.Trim(parts[0], " \t")
		refused := false
		if len(parts) == 2 {
			w := strings.Trim(parts[1], " \t")
			q, err := strconv.ParseFloat(strings.TrimRight(w[min(2, len(w)):], "."), 64)
			refused = !qvalueRef.MatchString(w) || err != nil || q <= 0
		}
		switch {
		case strings.EqualFold(coding, "gzip"):
			gzipListed, gzipRefused = true, gzipRefused || refused
		case coding == "*":
			starListed, starRefused = true, starRefused || refused
		}
	}
	if gzipListed {
		return !gzipRefused
	}
	return starListed && !starRefused
}

func TestAcceptsGzip(t *testing.T) {
	for _, c := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{"identity", false},
		{"gzip", true},
		{"GZip", true},
		{"deflate, gzip, br", true},
		{" \tgzip \t", true},
		{"br;q=1.0, gzip ; q=0.8", true},
		{"gzip;Q=1", true},
		{"gzip;q=1.000", true},
		{"gzip;q=0.001", true},
		{"gzip;q=0", false},
		{"gzip;q=0.000", false},
		{"gzip;q=0.", false},
		{"gzip;q=1.001", false},
		{"gzip;q=0.0001", false},
		{"gzip;q=2", false},
		{"gzip;q=.5", false},
		{"gzip;q=abc", false},
		{"gzip;q= 0.5", false},
		{"gzip;q=0.5;level=1", false},
		{"gzip;", false},
		{"*", true},
		{"*;q=0.1", true},
		{"*;q=0", false},
		{"*, gzip;q=0", false},
		{"gzip;q=0, *", false},
		{"gzip;q=bogus, *", false},
		{"x-gzip", false},
		{"gzip2, *;q=0", false},
		{",,gzip,,", true},
		{"gzip, gzip;q=0", false},
	} {
		if got := acceptsGzip(c.header); got != c.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", c.header, got, c.want)
		}
		if ref := acceptsGzipRef(c.header); ref != c.want {
			t.Errorf("acceptsGzipRef(%q) = %v, want %v", c.header, ref, c.want)
		}
	}
	// Repeated field lines read as one comma-joined list.
	if !requestAcceptsGzip([]string{"br", "gzip"}) || requestAcceptsGzip([]string{"*", "gzip;q=0"}) {
		t.Fatal("requestAcceptsGzip does not join field lines")
	}
	if n := testing.AllocsPerRun(100, func() { acceptsGzip("deflate, gzip;q=0.5, *;q=0") }); n != 0 {
		t.Fatalf("acceptsGzip allocates %.1f per call", n)
	}
}

// FuzzAcceptsGzip checks acceptsGzip against acceptsGzipRef on the
// client-controlled Accept-Encoding header, and the properties negotiation
// relies on: appending an explicit gzip refusal always refuses, and a plain
// gzip element accepts unless the list already refuses gzip. The seed corpus
// is in testdata/fuzz/FuzzAcceptsGzip.
func FuzzAcceptsGzip(f *testing.F) {
	f.Fuzz(func(t *testing.T, header string) {
		got := acceptsGzip(header)
		if want := acceptsGzipRef(header); got != want {
			t.Fatalf("acceptsGzip(%q) = %v, reference says %v", header, got, want)
		}
		if acceptsGzip(header + ", gzip;q=0") {
			t.Fatalf("acceptsGzip(%q) accepts after an explicit refusal", header+", gzip;q=0")
		}
		var a acceptEncoding
		a.scan(header)
		if withGzip := acceptsGzip(header + ",gzip"); withGzip == (a.gzip.refused) {
			t.Fatalf("acceptsGzip(%q) = %v, but the list refused gzip: %v", header+",gzip", withGzip, a.gzip.refused)
		}
	})
}
