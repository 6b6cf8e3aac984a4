// Package metrics is the dependency-free telemetry registry of the live
// cluster (DESIGN.md §15): named counters and gauges with an atomic,
// zero-allocation hot path, and histograms and summaries that a scrape hook
// sets from the node's own accumulators, exposed in Prometheus text format
// from each process's debug listener.
//
// The registry deliberately supports only what the cluster needs — no
// dynamic label cardinality, no summary quantiles, no push. A series is
// registered once (name plus a fixed label set) and returns a handle, a
// counter's increment path a single atomic add; exposition walks the series in
// sorted order so output is deterministic and diffable. Scrape hooks let a
// node mirror loop-confined state (queue depths, in-flight counts) into
// gauges under its event loop's consistency, which is what makes the
// conservation invariant (submitted == completed + in-flight) exactly
// checkable from a scrape rather than only approximately observable.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hybriddb/internal/stats"
)

// Label is one fixed key/value pair of a series. Labels are part of the
// series identity and must be known at registration time.
type Label struct{ Name, Value string }

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing counter. The zero value is ready;
// Inc and Add are single atomic adds (no allocation, no locks).
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down. Set is an atomic
// store. The zero value reads 0.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Distribution is the value of a histogram or summary series, which a scrape
// hook sets whole from an accumulator it owns: a stats.HistogramDump and the
// sum of its observations. A histogram series renders the dump's buckets; a
// summary series only its count, and the sum.
type Distribution struct {
	mu  sync.Mutex
	d   stats.HistogramDump
	sum float64
}

// Set replaces the value: d.Count observations summing to sum, bucketed as d
// says (a summary ignores the buckets).
func (s *Distribution) Set(d stats.HistogramDump, sum float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.d, s.sum = d, sum
}

func (s *Distribution) get() (stats.HistogramDump, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d, s.sum
}

// kind discriminates the series types for exposition.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
	kindSummary
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "summary"
	}
}

// series is one registered metric instance: a family name plus a rendered
// label set, and the value of its kind.
type series struct {
	labels  string // rendered {k="v",...} without braces, "" when unlabeled
	kind    kind
	counter Counter
	gauge   Gauge
	fn      func() float64
	dist    Distribution
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series []*series // sorted by labels at registration
}

// Registry holds the registered series of one process (or one node).
// Registration takes the registry lock; the returned handles are lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	hooks    []func()
	// hookMu serializes hook execution across concurrent scrapes: hooks
	// that mirror external state with read-modify-write (counter deltas)
	// must not interleave.
	hookMu sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + strconv.Quote(l.Value)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// register adds (or finds) the series for name+labels, enforcing one kind
// per family and one registration per series; fn is a gauge func's reader.
func (r *Registry) register(name, help string, k kind, labels []Label, fn func() float64) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: k}
		r.families[name] = fam
	} else if fam.kind.String() != k.String() {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, fam.kind, k))
	}
	rendered := renderLabels(labels)
	for _, s := range fam.series {
		if s.labels == rendered {
			if s.kind != k {
				panic(fmt.Sprintf("metrics: %s{%s} re-registered with a different kind", name, rendered))
			}
			return s
		}
	}
	s := &series{labels: rendered, kind: k, fn: fn}
	fam.series = append(fam.series, s)
	sort.Slice(fam.series, func(i, j int) bool { return fam.series[i].labels < fam.series[j].labels })
	return s
}

// Counter registers (or returns the existing) counter name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return &r.register(name, help, kindCounter, labels, nil).counter
}

// Gauge registers (or returns the existing) gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return &r.register(name, help, kindGauge, labels, nil).gauge
}

// GaugeFunc registers a gauge whose value is read by fn at scrape time.
// fn must be safe to call from the scrape goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGaugeFunc, labels, fn)
}

// Histogram registers (or returns the existing) histogram name{labels}.
func (r *Registry) Histogram(name, help string, labels ...Label) *Distribution {
	return &r.register(name, help, kindHistogram, labels, nil).dist
}

// Summary registers (or returns the existing) summary name{labels}: a count
// and a sum, no quantiles.
func (r *Registry) Summary(name, help string, labels ...Label) *Distribution {
	return &r.register(name, help, kindSummary, labels, nil).dist
}

// OnScrape registers a hook run (serially, registration order) before every
// exposition pass. Nodes use it to mirror loop-confined state into gauges
// under the event loop's consistency.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// snapshotLocked returns the families sorted by name; callers hold r.mu.
func (r *Registry) sortedFamilies() []*family {
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// runHooks runs the scrape hooks outside the registry lock (a hook may
// register or read series), serialized across concurrent scrapes.
func (r *Registry) runHooks() {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Snapshot runs the scrape hooks and returns every series as a flat
// name{labels} -> value map. Histograms and summaries contribute _count and
// _sum entries, histograms also p50/p95 quantile gauges, which is the scalar
// shape embedded in run manifests.
func (r *Registry) Snapshot() map[string]float64 {
	r.runHooks()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for _, fam := range r.sortedFamilies() {
		for _, s := range fam.series {
			full := seriesName(fam.name, s.labels)
			switch s.kind {
			case kindCounter:
				out[full] = float64(s.counter.Value())
			case kindGauge:
				out[full] = s.gauge.Value()
			case kindGaugeFunc:
				out[full] = s.fn()
			case kindHistogram, kindSummary:
				d, sum := s.dist.get()
				out[seriesName(fam.name+"_count", s.labels)] = float64(d.Count)
				out[seriesName(fam.name+"_sum", s.labels)] = sum
				if s.kind == kindHistogram && d.Count > 0 {
					out[seriesName(fam.name+"_p50", s.labels)] = d.Quantile(0.50)
					out[seriesName(fam.name+"_p95", s.labels)] = d.Quantile(0.95)
				}
			}
		}
	}
	return out
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}
