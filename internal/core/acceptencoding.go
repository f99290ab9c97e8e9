package core

import "strings"

// Accept-Encoding negotiation for the rendered layer's gzip copies. The
// header is client-controlled, so the parser is strict about the grammar of
// RFC 9110 §12.5.3 and conservative about what it does not understand:
//
//	Accept-Encoding = #( codings [ OWS ";" OWS "q=" qvalue ] )
//	qvalue          = ( "0" [ "." 0*3DIGIT ] ) / ( "1" [ "." 0*3("0") ] )
//
// Codings compare case-insensitively, OWS (spaces and tabs) may surround
// each element and its ";", and a weight that does not match qvalue — or
// any parameter other than one "q" — makes that element "not acceptable",
// the same as q=0. gzip is accepted when it is listed and every listing has
// a nonzero weight; when gzip is not listed, "*" decides the same way. A
// missing or empty header accepts nothing but identity: those clients get
// the plain bytes.

// codingPref is what an Accept-Encoding value says about one coding.
type codingPref struct {
	listed  bool // the coding appeared in the list
	refused bool // some listing had weight 0 or a malformed weight
}

// acceptEncoding accumulates the gzip and "*" preferences of one request's
// Accept-Encoding field lines.
type acceptEncoding struct{ gzip, star codingPref }

// acceptsGzip reports whether one Accept-Encoding value accepts gzip.
func acceptsGzip(header string) bool { return requestAcceptsGzip([]string{header}) }

// requestAcceptsGzip is acceptsGzip over every Accept-Encoding field line
// of a request: a repeated field is one comma-joined list, so a refusal on
// a later line still counts.
func requestAcceptsGzip(lines []string) bool {
	var a acceptEncoding
	for _, v := range lines {
		a.scan(v)
	}
	return a.gzipOK()
}

func (a *acceptEncoding) gzipOK() bool {
	if a.gzip.listed {
		return !a.gzip.refused
	}
	return a.star.listed && !a.star.refused
}

// scan walks one comma-separated list in place, without allocating.
func (a *acceptEncoding) scan(v string) {
	for v != "" {
		elem := v
		if i := strings.IndexByte(v, ','); i >= 0 {
			elem, v = v[:i], v[i+1:]
		} else {
			v = ""
		}
		coding, weight, weighted := strings.Cut(elem, ";")
		var p *codingPref
		switch coding = trimOWS(coding); {
		case strings.EqualFold(coding, "gzip"):
			p = &a.gzip
		case coding == "*":
			p = &a.star
		default:
			continue
		}
		p.listed = true
		if weighted && !positiveWeight(trimOWS(weight)) {
			p.refused = true
		}
	}
}

// positiveWeight reports whether w is a well-formed "q=qvalue" weight
// above zero.
func positiveWeight(w string) bool {
	if len(w) < 3 || (w[0] != 'q' && w[0] != 'Q') || w[1] != '=' {
		return false
	}
	q := w[2:]
	frac := ""
	if len(q) > 1 {
		if q[1] != '.' || len(q) > 5 {
			return false
		}
		frac = q[2:]
	}
	switch q[0] {
	case '0':
		positive := false
		for i := 0; i < len(frac); i++ {
			if frac[i] < '0' || frac[i] > '9' {
				return false
			}
			positive = positive || frac[i] != '0'
		}
		return positive
	case '1':
		return strings.Trim(frac, "0") == ""
	}
	return false
}

// trimOWS strips HTTP optional whitespace (spaces and horizontal tabs).
func trimOWS(s string) string {
	for s != "" && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for s != "" && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}
