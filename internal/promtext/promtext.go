// Package promtext is a small parser for the Prometheus text exposition
// format: enough for tests to round-trip telemetry's WritePrometheus output
// and to read single samples off a /metrics scrape without a Prometheus
// dependency. It is test support; no program imports it.
package promtext

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// The metric- and label-name grammars; a label name takes no colon.
var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Sample is one parsed exposition line: a metric name (including any
// _bucket/_sum/_count suffix), its labels, and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseText parses a Prometheus text exposition. # HELP/# TYPE comment
// lines are validated for shape and skipped; every sample line must parse
// or the whole input is rejected.
func ParseText(data []byte) ([]Sample, error) {
	var out []Sample
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := checkComment(line); err != nil {
				return nil, fmt.Errorf("promtext line %d: %w", ln+1, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("promtext line %d: %w", ln+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// checkComment validates a # HELP / # TYPE line's shape (other comments
// pass untouched).
func checkComment(line string) error {
	rest, ok := strings.CutPrefix(line, "# ")
	if !ok {
		return nil
	}
	kind, rest, _ := strings.Cut(rest, " ")
	switch kind {
	case "HELP", "TYPE":
		name, arg, _ := strings.Cut(rest, " ")
		if !metricName.MatchString(name) {
			return fmt.Errorf("%s for invalid metric name %q", kind, name)
		}
		if kind == "TYPE" {
			switch arg {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("unknown TYPE %q for %q", arg, name)
			}
		}
	}
	return nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	s.Name = line[:i]
	if !metricName.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		var err error
		if s.Labels, rest, err = parseLabels(rest[1:]); err != nil {
			return s, err
		}
	}
	rest = strings.TrimLeft(rest, " ")
	// A timestamp (second field) is permitted by the format; take the
	// first field as the value.
	val, _, _ := strings.Cut(rest, " ")
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", val, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes `k="v",...}` and returns the map plus what follows
// the closing brace.
func parseLabels(rest string) (map[string]string, string, error) {
	labels := map[string]string{}
	for {
		rest = strings.TrimLeft(rest, " ,")
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '=' near %q", rest)
		}
		key := strings.TrimSpace(rest[:eq])
		if !labelName.MatchString(key) {
			return nil, "", fmt.Errorf("invalid label name %q", key)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", fmt.Errorf("unquoted value for label %q", key)
		}
		val, remainder, err := parseQuoted(rest[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %q: %w", key, err)
		}
		if _, dup := labels[key]; dup {
			return nil, "", fmt.Errorf("duplicate label %q", key)
		}
		labels[key] = val
		rest = remainder
	}
}

// parseQuoted consumes an escaped label value up to its closing quote.
func parseQuoted(rest string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(rest); i++ {
		switch c := rest[i]; c {
		case '"':
			return b.String(), rest[i+1:], nil
		case '\\':
			i++
			if i >= len(rest) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch rest[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", rest[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value")
}

// FindSample returns the first sample matching name and every given label
// pair (key, value, key, value, ...), or false when none matches — the
// one-liner a smoke test needs.
func FindSample(samples []Sample, name string, labels ...string) (Sample, bool) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for i := 0; i < len(labels); i += 2 {
			if s.Labels[labels[i]] != labels[i+1] {
				ok = false
				break
			}
		}
		if ok {
			return s, true
		}
	}
	return Sample{}, false
}
