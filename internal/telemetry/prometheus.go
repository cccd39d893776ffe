package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// WritePrometheus renders a metric snapshot in the Prometheus text
// exposition format (version 0.0.4): for every metric a # HELP and # TYPE
// line, then the samples; histograms expand into cumulative _bucket series
// with le labels, plus _sum and _count. Metrics appear in snapshot order,
// so the body is deterministic for a fixed snapshot. A malformed or
// repeated metric name is an error: the exposition would be invalid.
func WritePrometheus(w io.Writer, snap []MetricSnapshot) error {
	seen := make(map[string]bool, len(snap))
	for _, m := range snap {
		if !validMetricName(m.Name) || seen[m.Name] {
			return fmt.Errorf("telemetry: invalid or duplicate metric name %q", m.Name)
		}
		seen[m.Name] = true
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
			return err
		}
		switch m.Kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.Name, m.IntValue); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s %s\n", m.Name, formatFloat(m.Value)); err != nil {
				return err
			}
		case kindHistogram:
			for _, b := range m.Buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.Name, formatFloat(b.UpperBound), b.Cumulative); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n", m.Name, formatFloat(m.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count %d\n", m.Name, m.Count); err != nil {
				return err
			}
		default:
			return fmt.Errorf("telemetry: unknown metric kind %q for %s", m.Kind, m.Name)
		}
	}
	return nil
}

// validMetricName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// formatFloat renders a sample value or bucket bound the way Prometheus
// expects: shortest round-trip representation, NaN/Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
