// Package obs is the dashboard's observability substrate: atomic counters,
// gauges, fixed-bucket latency histograms with quantile estimation, and a
// registry that renders the whole set as valid Prometheus text exposition.
//
// The paper's caching argument (§2.4) is quantitative — cache layers exist
// to cut slurmctld RPC load and keep widget latency flat — so the dashboard
// needs first-class latency and attribution data before any of that can be
// measured. This package is dependency-free (stdlib only) and safe for
// concurrent use; a center's existing Prometheus can scrape the output of
// Registry.WritePrometheus unchanged.
//
// Metric families are registered once by name; re-registering the same name
// with the same kind returns the existing family, so package wiring is
// idempotent. Label values are escaped per the exposition format's three
// escapes (backslash, double quote, newline) — and only those three: UTF-8
// label values pass through as raw UTF-8, which is what the format requires
// (Go's %q-style \u escapes are invalid there).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a Prometheus metric family type.
type Kind int

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the exposition TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// Sample is one rendered series of a collector-backed family: its labels
// and current value, optionally annotated with an exemplar linking the
// series back to a trace (rendered OpenMetrics-style after the value).
type Sample struct {
	Labels   []Label
	Value    float64
	Exemplar *Exemplar
}

// Exemplar links a rendered sample to the trace that produced a
// representative observation.
type Exemplar struct {
	TraceID string
	Value   float64
	Ts      float64
}

// --- scalar metrics ---------------------------------------------------------

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay a valid counter).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float gauge.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// --- histogram --------------------------------------------------------------

// DefLatencyBuckets are the default request-latency bucket upper bounds in
// seconds, spanning 0.5 ms to 10 s; +Inf is implicit. They cover both the
// sub-millisecond cache-hit path and a slurmctld that is struggling.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with an atomic count per bucket.
// Quantiles are estimated by linear interpolation within the bucket that
// holds the target rank — the same estimate Prometheus's histogram_quantile
// computes from the exposition.
type Histogram struct {
	bounds []float64      // ascending upper bounds, +Inf excluded
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow bucket
	count  atomic.Int64
	sum    Gauge
	ex     atomic.Pointer[exemplar]
}

// exemplar links one observed value back to the trace that produced it, in
// the OpenMetrics sense: rendered as ` # {trace_id="..."} value ts` on the
// bucket line whose range contains the value.
type exemplar struct {
	traceID string
	value   float64
	ts      float64
}

// NewHistogram returns a histogram over the given ascending bucket upper
// bounds (nil means DefLatencyBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	sort.Float64s(cp)
	return &Histogram{bounds: cp, counts: make([]atomic.Int64, len(cp)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// SetExemplar links the histogram's most recent interesting observation to
// a trace ID. The exposition renders it on the matching bucket line; each
// call replaces the previous exemplar (last-write-wins, lock-free).
func (h *Histogram) SetExemplar(traceID string, value, ts float64) {
	h.ex.Store(&exemplar{traceID: traceID, value: value, ts: ts})
}

// Exemplar returns the current exemplar's trace ID, value, and timestamp
// (ok=false when none has been set).
func (h *Histogram) Exemplar() (traceID string, value, ts float64, ok bool) {
	e := h.ex.Load()
	if e == nil {
		return "", 0, 0, false
	}
	return e.traceID, e.value, e.ts, true
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the target bucket. With no observations it returns 0; ranks that
// land in the +Inf bucket return the highest finite bound (the estimate is
// a floor, as with PromQL's histogram_quantile).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		// A zero-bound histogram has only the +Inf bucket: no finite bound
		// exists to floor the estimate at, so the estimate is 0.
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n < rank || n == 0 {
			cum += n
			continue
		}
		if i == len(h.bounds) {
			return h.bounds[len(h.bounds)-1] // +Inf bucket: floor at last bound
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (h.bounds[i]-lo)*(rank-cum)/n
	}
	return h.bounds[len(h.bounds)-1]
}

// snapshot returns cumulative bucket counts aligned with bounds + the +Inf
// total, read without tearing the rendered invariants: buckets are summed
// low-to-high so the cumulative sequence is always non-decreasing and the
// +Inf bucket always equals the rendered _count.
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, running, h.Sum()
}

// --- vectors ----------------------------------------------------------------

// vecKey joins label values unambiguously (values may contain commas). A
// single label value is its own key, so one-label vectors look up their
// child without building a string.
func vecKey(values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	var b strings.Builder
	for i, v := range values {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(v)
	}
	return b.String()
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	labels   []string
	mu       sync.Mutex
	children map[string]*Counter
	keys     map[string][]string
}

// With returns the counter for the given label values, creating it on first
// use. It panics on arity mismatch — that is a programming error.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: CounterVec.With: got %d label values, want %d (%v)", len(values), len(v.labels), v.labels))
	}
	key := vecKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = &Counter{}
		v.children[key] = c
		cp := make([]string, len(values))
		copy(cp, values)
		v.keys[key] = cp
	}
	return c
}

// Value returns the current count for the given label values (0 when the
// series does not exist yet).
func (v *CounterVec) Value(values ...string) int64 {
	key := vecKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c.Value()
	}
	return 0
}

// sortedKeys returns child keys in deterministic render order.
func sortedChildKeys[T any](mu *sync.Mutex, children map[string]T) []string {
	mu.Lock()
	defer mu.Unlock()
	keys := make([]string, 0, len(children))
	for k := range children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct {
	labels   []string
	bounds   []float64
	mu       sync.Mutex
	children map[string]*Histogram
	keys     map[string][]string
}

// With returns the histogram for the given label values, creating it on
// first use. It panics on arity mismatch.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: HistogramVec.With: got %d label values, want %d (%v)", len(values), len(v.labels), v.labels))
	}
	key := vecKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[key]
	if !ok {
		h = NewHistogram(v.bounds)
		v.children[key] = h
		cp := make([]string, len(values))
		copy(cp, values)
		v.keys[key] = cp
	}
	return h
}

// --- registry ---------------------------------------------------------------

type family struct {
	name string
	kind Kind
	help string

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	cvec    *CounterVec
	hvec    *HistogramVec
	collect func() []Sample
}

// Registry holds metric families in registration order and renders them as
// one Prometheus exposition document.
type Registry struct {
	mu       sync.Mutex
	byName   map[string]*family
	families []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// lookup returns the existing family for name, enforcing kind agreement, or
// registers the one built by mk.
func (r *Registry) lookup(name string, kind Kind, mk func() *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: %s already registered as %s, not %s", name, f.kind, kind))
		}
		return f
	}
	f := mk()
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter registers (or returns) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, KindCounter, func() *family {
		return &family{name: name, kind: KindCounter, help: help, counter: &Counter{}}
	})
	if f.counter == nil {
		panic(fmt.Sprintf("obs: %s registered with labels; use CounterVec", name))
	}
	return f.counter
}

// CounterVec registers (or returns) the named counter family with labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.lookup(name, KindCounter, func() *family {
		return &family{name: name, kind: KindCounter, help: help, cvec: &CounterVec{
			labels:   labels,
			children: make(map[string]*Counter),
			keys:     make(map[string][]string),
		}}
	})
	if f.cvec == nil {
		panic(fmt.Sprintf("obs: %s registered without labels; use Counter", name))
	}
	return f.cvec
}

// Gauge registers (or returns) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, KindGauge, func() *family {
		return &family{name: name, kind: KindGauge, help: help, gauge: &Gauge{}}
	})
	if f.gauge == nil {
		panic(fmt.Sprintf("obs: %s registered as a callback gauge", name))
	}
	return f.gauge
}

// GaugeFunc registers a gauge whose value is read at render time — for
// bridging quantities another subsystem already tracks (cache entry counts).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.lookup(name, KindGauge, func() *family {
		return &family{name: name, kind: KindGauge, help: help, gaugeFn: fn}
	})
}

// CollectorFunc registers a family whose labelled samples are produced at
// render time — for bridging per-source stats kept elsewhere (breaker
// snapshots, sdiag RPC counts). The callback must return a deterministic
// order if the exposition should be stable.
func (r *Registry) CollectorFunc(name string, kind Kind, help string, fn func() []Sample) {
	r.lookup(name, kind, func() *family {
		return &family{name: name, kind: kind, help: help, collect: fn}
	})
}

// HistogramVec registers (or returns) the named histogram family. nil
// bounds means DefLatencyBuckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	f := r.lookup(name, KindHistogram, func() *family {
		b := bounds
		if len(b) == 0 {
			b = DefLatencyBuckets
		}
		cp := make([]float64, len(b))
		copy(cp, b)
		sort.Float64s(cp)
		return &family{name: name, kind: KindHistogram, help: help, hvec: &HistogramVec{
			labels:   labels,
			bounds:   cp,
			children: make(map[string]*Histogram),
			keys:     make(map[string][]string),
		}}
	})
	return f.hvec
}

// --- exposition rendering ---------------------------------------------------

// labelEscaper applies the exposition format's label-value escapes — and
// only those. Non-ASCII runes must pass through as raw UTF-8; Go's %q would
// emit \u escapes that Prometheus rejects.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// helpEscaper applies the HELP text escapes (backslash and newline).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// EscapeLabelValue escapes s for use inside label="..." in the exposition
// format.
func EscapeLabelValue(s string) string { return labelEscaper.Replace(s) }

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {a="x",b="y"}; extra is appended last (histograms'
// le label). Empty label sets render nothing.
func writeLabels(b *strings.Builder, labels []Label) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func sampleLine(name string, labels []Label, v float64) string {
	var b strings.Builder
	b.WriteString(name)
	writeLabels(&b, labels)
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
	return b.String()
}

func pairLabels(names, values []string) []Label {
	out := make([]Label, len(names))
	for i := range names {
		out[i] = Label{Name: names[i], Value: values[i]}
	}
	return out
}

// WritePrometheus renders every family, in registration order, as a valid
// Prometheus text exposition document: one HELP and one TYPE line per
// family, then its samples (histograms as _bucket/_sum/_count series).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, helpEscaper.Replace(f.help), f.name, f.kind); err != nil {
			return err
		}
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	switch {
	case f.counter != nil:
		_, err := io.WriteString(w, sampleLine(f.name, nil, float64(f.counter.Value())))
		return err
	case f.gauge != nil:
		_, err := io.WriteString(w, sampleLine(f.name, nil, f.gauge.Value()))
		return err
	case f.gaugeFn != nil:
		_, err := io.WriteString(w, sampleLine(f.name, nil, f.gaugeFn()))
		return err
	case f.collect != nil:
		for _, s := range f.collect() {
			line := sampleLine(f.name, s.Labels, s.Value)
			if s.Exemplar != nil {
				line = withExemplar(line, &exemplar{
					traceID: s.Exemplar.TraceID, value: s.Exemplar.Value, ts: s.Exemplar.Ts})
			}
			if _, err := io.WriteString(w, line); err != nil {
				return err
			}
		}
		return nil
	case f.cvec != nil:
		v := f.cvec
		for _, key := range sortedChildKeys(&v.mu, v.children) {
			v.mu.Lock()
			c, values := v.children[key], v.keys[key]
			v.mu.Unlock()
			if _, err := io.WriteString(w,
				sampleLine(f.name, pairLabels(v.labels, values), float64(c.Value()))); err != nil {
				return err
			}
		}
		return nil
	case f.hvec != nil:
		return f.writeHistograms(w)
	}
	return nil
}

func (f *family) writeHistograms(w io.Writer) error {
	v := f.hvec
	for _, key := range sortedChildKeys(&v.mu, v.children) {
		v.mu.Lock()
		h, values := v.children[key], v.keys[key]
		v.mu.Unlock()
		base := pairLabels(v.labels, values)
		cum, count, sum := h.snapshot()
		// The exemplar attaches to the bucket line whose range contains its
		// value (the +Inf line when past every bound).
		ex := h.ex.Load()
		exIdx := -1
		if ex != nil {
			exIdx = sort.SearchFloat64s(h.bounds, ex.value)
		}
		for i, bound := range h.bounds {
			labels := append(append([]Label{}, base...), Label{Name: "le", Value: formatValue(bound)})
			line := sampleLine(f.name+"_bucket", labels, float64(cum[i]))
			if i == exIdx {
				line = withExemplar(line, ex)
			}
			if _, err := io.WriteString(w, line); err != nil {
				return err
			}
		}
		labels := append(append([]Label{}, base...), Label{Name: "le", Value: "+Inf"})
		line := sampleLine(f.name+"_bucket", labels, float64(count))
		if exIdx == len(h.bounds) {
			line = withExemplar(line, ex)
		}
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
		if _, err := io.WriteString(w, sampleLine(f.name+"_sum", base, sum)); err != nil {
			return err
		}
		if _, err := io.WriteString(w, sampleLine(f.name+"_count", base, float64(count))); err != nil {
			return err
		}
	}
	return nil
}

// withExemplar appends an OpenMetrics exemplar to a rendered sample line:
// `name_bucket{le="x"} 3 # {trace_id="..."} 0.042 1718000000.5`.
func withExemplar(line string, ex *exemplar) string {
	return line[:len(line)-1] + ` # {trace_id="` + labelEscaper.Replace(ex.traceID) + `"} ` +
		formatValue(ex.value) + " " + formatValue(ex.ts) + "\n"
}
