package etag

import (
	"strings"
	"testing"
)

// matchRef is the plain reading of If-None-Match that Match must agree
// with: "*" matches any tag; otherwise the header is a comma-separated list
// whose candidates, with surrounding spaces and a W/ prefix removed, are
// compared with the tag. Empty candidates are not tags.
func matchRef(header, tag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		if c := strings.TrimPrefix(strings.TrimSpace(cand), "W/"); c != "" && c == tag {
			return true
		}
	}
	return false
}

// FuzzMatch checks Match against matchRef on the client-controlled
// If-None-Match header, and the properties revalidation relies on: "*"
// matches, an empty header never does, and a listed tag matches wherever it
// sits in the list, weak or strong, padded or not. The seed corpus is in
// testdata/fuzz/FuzzMatch.
func FuzzMatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, header, tag string) {
		if got, want := Match(header, tag), matchRef(header, tag); got != want {
			t.Fatalf("Match(%q, %q) = %v, reference says %v", header, tag, got, want)
		}
		if !Match("*", tag) || !Match(" * ", tag) {
			t.Fatalf("Match(\"*\", %q) = false", tag)
		}
		if Match("", tag) {
			t.Fatalf("Match(\"\", %q) = true", tag)
		}
		// A well-formed list element: no comma, no padding of its own, and
		// no W/ prefix that the weak comparison would strip.
		if tag == "" || strings.Contains(tag, ",") || strings.TrimSpace(tag) != tag || strings.HasPrefix(tag, "W/") {
			return
		}
		for _, h := range []string{
			tag,
			"W/" + tag,
			header + "," + tag,
			header + ", W/" + tag + " ",
			" \t" + tag + " ," + header,
			"W/" + tag + "," + header,
		} {
			if !Match(h, tag) {
				t.Fatalf("Match(%q, %q) = false for a listed tag", h, tag)
			}
		}
	})
}

// TestForIsQuotedHex pins the tag format: 16 lowercase hex digits in quotes,
// equal for equal bodies and different for different ones.
func TestForIsQuotedHex(t *testing.T) {
	a, b := For([]byte("body")), For([]byte("body!"))
	if len(a) != 18 || a[0] != '"' || a[17] != '"' || strings.Trim(a[1:17], hexDigits) != "" {
		t.Fatalf("For = %q, want a quoted 16-digit hex hash", a)
	}
	if a != For([]byte("body")) || a == b {
		t.Fatalf("For is not a content hash: %q, %q", a, b)
	}
	if !Match(a, a) {
		t.Fatalf("a tag does not revalidate against itself")
	}
}
