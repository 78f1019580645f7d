package telemetry

// Prometheus text exposition rendering (version 0.0.4): the scrape-time
// half of the registry. All formatting cost lives here, none on the
// metric-update hot paths.

import (
	"io"
	"math"
	"sort"
	"strconv"
)

// appendEscaped writes s with backslash, double-quote (label values only),
// and newline escaped per the exposition format.
func appendEscaped(dst []byte, s string, quoteValue bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			dst = append(dst, '\\', '\\')
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '"' && quoteValue:
			dst = append(dst, '\\', '"')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendFloat formats a sample value: integral values render without an
// exponent, +Inf as "+Inf" (the spelling le-labels require).
func appendFloat(dst []byte, v float64) []byte {
	switch {
	case math.IsInf(v, +1):
		return append(dst, "+Inf"...)
	case math.IsInf(v, -1):
		return append(dst, "-Inf"...)
	case math.IsNaN(v):
		return append(dst, "NaN"...)
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// appendLabels renders {k="v",...}; extra, when non-empty, appends one
// more pair (the histogram "le" label) after the series labels.
func appendLabels(dst []byte, labels []Label, extraKey string, extraVal []byte) []byte {
	if len(labels) == 0 && extraKey == "" {
		return dst
	}
	dst = append(dst, '{')
	for i, l := range labels {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l.Key...)
		dst = append(dst, '=', '"')
		dst = appendEscaped(dst, l.Value, true)
		dst = append(dst, '"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, extraKey...)
		dst = append(dst, '=', '"')
		dst = append(dst, extraVal...)
		dst = append(dst, '"')
	}
	return append(dst, '}')
}

func appendSample(dst []byte, name string, labels []Label, suffix string, extraKey string, extraVal []byte, v float64) []byte {
	dst = append(dst, name...)
	dst = append(dst, suffix...)
	dst = appendLabels(dst, labels, extraKey, extraVal)
	dst = append(dst, ' ')
	dst = appendFloat(dst, v)
	return append(dst, '\n')
}

// WritePrometheus renders every family in the registry to w in the text
// exposition format, families sorted by name, series in registration
// order. Histogram series render cumulative _bucket samples (including
// +Inf), then _sum and _count; the +Inf bucket always equals _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	buf := make([]byte, 0, 4096)
	for _, f := range fams {
		// Snapshot the series list under the lock; the metrics themselves
		// are atomic and read without it.
		r.mu.Lock()
		series := make([]*series, len(f.series))
		copy(series, f.series)
		r.mu.Unlock()

		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = appendEscaped(buf, f.help, false)
		buf = append(buf, '\n')
		buf = append(buf, "# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, string(f.typ)...)
		buf = append(buf, '\n')

		for _, s := range series {
			switch f.typ {
			case typeCounter:
				buf = appendSample(buf, f.name, s.labels, "", "", nil, float64(s.c.Value()))
			case typeGauge:
				v := 0.0
				if s.fn != nil {
					v = s.fn()
				} else {
					v = s.g.Value()
				}
				buf = appendSample(buf, f.name, s.labels, "", "", nil, v)
			case typeHistogram:
				cum, sum := s.h.snapshot()
				// The +Inf bucket must equal _count even when Observes race
				// the snapshot; derive both from the same cumulative total.
				total := cum[len(cum)-1]
				var le []byte
				for i, bound := range s.h.upper {
					le = appendFloat(le[:0], bound)
					buf = appendSample(buf, f.name, s.labels, "_bucket", "le", le, float64(cum[i]))
				}
				buf = appendSample(buf, f.name, s.labels, "_bucket", "le", []byte("+Inf"), float64(total))
				buf = appendSample(buf, f.name, s.labels, "_sum", "", nil, sum)
				buf = appendSample(buf, f.name, s.labels, "_count", "", nil, float64(total))
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		buf = buf[:0]
	}
	_, err := w.Write(buf)
	return err
}
