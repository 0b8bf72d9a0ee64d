package obs

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative le-bucketed _bucket series plus _sum and _count.
// Each family emits one TYPE line followed by its series in sorted label
// order (an unlabeled family's one series has none), and histogram buckets
// that hold an exemplar append it OpenMetrics-style
// (`... # {trace_id="..."} value`) so a scraper that understands exemplars
// can jump from a latency bucket to the retained trace. Metric names are
// reported verbatim (the registry's naming convention is already snake_case
// with conventional suffixes) and families are emitted in sorted name order
// per kind, so the output is deterministic for a fixed registry state — which
// is what the golden-file test pins down.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	cs, gs, hs := r.read()
	p := &promWriter{w: w}
	writeFamilies(p, "counter", cs, func(s reading[int64]) { p.printf("%s %d\n", s.key(), s.v) })
	writeFamilies(p, "gauge", gs, func(s reading[float64]) { p.printf("%s %s\n", s.key(), promFloat(s.v)) })
	writeFamilies(p, "histogram", hs, p.histogram)
	return p.err
}

// promWriter keeps the first write error and skips every write after it.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// writeFamilies writes the readings of one instrument kind in exposition
// order — by family name, then by label block — with one TYPE line per
// family.
func writeFamilies[V any](p *promWriter, kind string, rs []reading[V], sample func(reading[V])) {
	slices.SortFunc(rs, func(a, b reading[V]) int {
		return cmp.Or(strings.Compare(a.name, b.name), strings.Compare(a.labels, b.labels))
	})
	for i, s := range rs {
		if i == 0 || s.name != rs[i-1].name {
			p.printf("# TYPE %s %s\n", s.name, kind)
		}
		sample(s)
	}
}

// histogram writes one histogram series: its non-empty cumulative buckets (a
// legal exposition as long as +Inf closes the series with the total count),
// exemplars where present, then _sum and _count.
func (p *promWriter) histogram(s reading[HistogramSnapshot]) {
	lbl, blk := "", ""
	if s.labels != "" {
		lbl, blk = s.labels+",", "{"+s.labels+"}"
	}
	for _, b := range s.v.Le {
		p.printf(`%s_bucket{%sle="%s"} %d`, s.name, lbl, promFloat(b.Le), b.Count)
		if b.Exemplar != nil {
			// OpenMetrics exemplar: ` # {trace_id="..."} value`. The
			// timestamp is optional and omitted to keep the exposition
			// deterministic for a fixed registry state.
			p.printf(" # {trace_id=%q} %s", b.Exemplar.TraceID, promFloat(b.Exemplar.Value))
		}
		p.printf("\n")
	}
	p.printf("%s_bucket{%sle=\"+Inf\"} %d\n%s_sum%s %s\n%s_count%s %d\n",
		s.name, lbl, s.v.Count, s.name, blk, promFloat(s.v.Sum), s.name, blk, s.v.Count)
}

// promFloat formats a float64 the way Prometheus clients do: shortest
// round-trip representation, with the special values spelled out.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
