package metrics

// Exposition: Prometheus text format (the scrape surface `make
// cluster-smoke` asserts conservation over), the per-process debug HTTP
// server, and a small parser for the text format so tests and tooling can
// read a scrape back without a Prometheus dependency.

import (
	"bufio"
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"hybriddb/internal/stats"
)

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus runs the scrape hooks and renders every series in
// Prometheus text exposition format, families and series in sorted order so
// the output is deterministic (golden-tested).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.runHooks()
	r.mu.Lock()
	fams := r.sortedFamilies()
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, fam := range fams {
		if fam.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", fam.name, fam.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam.name, fam.kind)
		for _, s := range fam.series {
			switch s.kind {
			case kindCounter:
				fmt.Fprintf(bw, "%s %d\n", seriesName(fam.name, s.labels), s.counter.Value())
			case kindGauge:
				fmt.Fprintf(bw, "%s %s\n", seriesName(fam.name, s.labels), formatFloat(s.gauge.Value()))
			case kindGaugeFunc:
				fmt.Fprintf(bw, "%s %s\n", seriesName(fam.name, s.labels), formatFloat(s.fn()))
			case kindHistogram, kindSummary:
				writePromDistribution(bw, fam.name, s)
			}
		}
	}
	return bw.Flush()
}

// writePromDistribution renders one histogram or summary series: a
// histogram's cumulative le buckets first, then _sum and _count. Underflow
// mass (x < lo) is below every bucket bound and so is folded into each
// cumulative count; overflow appears only in +Inf, whose count equals _count.
func writePromDistribution(w io.Writer, name string, s *series) {
	d, sum := s.dist.get()
	if s.kind == kindHistogram {
		cum := d.Under
		for i := range bucketCount(d) {
			if i < len(d.Counts) {
				cum += d.Counts[i]
			}
			le := formatFloat(d.Lo + float64(i+1)*d.Width)
			fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", joinLabels(s.labels, `le=`+strconv.Quote(le))), cum)
		}
		fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", joinLabels(s.labels, `le="+Inf"`)), d.Count)
	}
	fmt.Fprintf(w, "%s %s\n", seriesName(name+"_sum", s.labels), formatFloat(sum))
	fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", s.labels), d.Count)
}

// bucketCount is a dump's bucket count before its trailing empty buckets were
// trimmed: zero for a dump that was never set.
func bucketCount(d stats.HistogramDump) int {
	if d.Width <= 0 {
		return 0
	}
	return int(math.Round((d.Hi - d.Lo) / d.Width))
}

func joinLabels(existing, extra string) string {
	if existing == "" {
		return extra
	}
	return existing + "," + extra
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format (the /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// StartDebugServer serves the registry's /metrics plus expvar (/debug/vars)
// and pprof (/debug/pprof) on addr in a background goroutine, returning the
// bound address (useful with ":0"). The listener lives until the process
// exits; cluster nodes are shut down by signal, and an in-flight scrape at
// that instant simply sees the final counters.
func StartDebugServer(addr string, reg *Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("metrics: debug server: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}

// ParseText parses Prometheus text exposition into a flat name{labels} ->
// value map — the inverse of WritePrometheus, shared by the cluster-smoke
// conservation assertion and any tooling that reads a scrape back. Comment
// and blank lines are skipped; a malformed sample line is an error.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value starts after the last space outside the label braces;
		// label values are quoted and may not contain spaces in our output,
		// so the last space splits name from value.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: unparseable sample line %q", line)
		}
		name := strings.TrimSpace(line[:i])
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ScrapeHTTP fetches url (a /metrics endpoint) and parses it.
func ScrapeHTTP(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: scrape %s: status %s", url, resp.Status)
	}
	return ParseText(resp.Body)
}
