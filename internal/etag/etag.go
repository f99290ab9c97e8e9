// Package etag implements strong entity tags and If-None-Match matching
// shared by the dashboard's widget routes (internal/core) and the Slurm
// REST surface (internal/slurmrest). Tags are FNV-64a content hashes of
// the exact response body, so equal bytes always revalidate and any byte
// change invalidates.
package etag

import "strings"

const hexDigits = "0123456789abcdef"

// For returns the strong entity tag for a response body: an FNV-64a
// content hash as 16 zero-padded hex digits in quotes. The hash loop is
// inlined and the tag built directly into a fixed buffer — a
// fmt.Sprintf("%q", fmt.Sprintf("%016x", ...)) pair allocates three
// strings per tag on a path that runs for every fresh 200; this
// allocates one.
func For(body []byte) string {
	h := uint64(14695981039346656037)
	for _, b := range body {
		h = (h ^ uint64(b)) * 1099511628211
	}
	var buf [18]byte
	buf[0], buf[17] = '"', '"'
	for i := 16; i >= 1; i-- {
		buf[i] = hexDigits[h&0xf]
		h >>= 4
	}
	return string(buf[:])
}

// Match implements If-None-Match: a comma-separated candidate list or
// "*", with weak-comparison semantics (a W/ prefix is ignored, per RFC
// 9110 §13.1.2 — If-None-Match uses weak comparison). Empty list elements
// are not tags and never match.
func Match(header, tag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	// Walk the candidate list in place; Split would allocate the slice on
	// every revalidation (the single-tag common case included).
	for len(header) > 0 {
		cand := header
		if i := strings.IndexByte(header, ','); i >= 0 {
			cand, header = header[:i], header[i+1:]
		} else {
			header = ""
		}
		cand = strings.TrimPrefix(strings.TrimSpace(cand), "W/")
		if cand != "" && cand == tag {
			return true
		}
	}
	return false
}
