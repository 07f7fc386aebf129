package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteProm renders a Metrics snapshot in Prometheus text exposition format
// (version 0.0.4). The encoder is hand-rolled — the repo takes no external
// dependencies — and deterministic: families appear in a fixed order and
// labelled series (loops) in the order Metrics produced them, which is the
// loop enum order. The JSON form on /metrics is untouched; this is the same
// snapshot re-encoded for scrapers.
func WriteProm(w io.Writer, m Metrics) error {
	b := bufio.NewWriter(w)

	gauge := func(name, help string, v float64) {
		_, _ = fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, promFloat(v))
	}
	counter := func(name, help string, v float64) {
		_, _ = fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %s\n",
			name, help, name, name, promFloat(v))
	}

	gauge("loosim_workers", "Size of the simulation worker pool.", float64(m.Workers))
	gauge("loosim_queue_depth", "Jobs accepted but not yet picked up by a worker.", float64(m.QueueDepth))
	gauge("loosim_running", "Jobs currently executing on a worker.", float64(m.Running))
	draining := 0.0
	if m.Draining {
		draining = 1
	}
	gauge("loosim_draining", "1 while the server is draining and rejecting submissions.", draining)

	_, _ = fmt.Fprintf(b, "# HELP loosim_jobs_total Jobs by lifecycle outcome.\n# TYPE loosim_jobs_total counter\n")
	_, _ = fmt.Fprintf(b, "loosim_jobs_total{state=\"submitted\"} %d\n", m.Jobs.Submitted)
	_, _ = fmt.Fprintf(b, "loosim_jobs_total{state=\"completed\"} %d\n", m.Jobs.Completed)
	_, _ = fmt.Fprintf(b, "loosim_jobs_total{state=\"failed\"} %d\n", m.Jobs.Failed)
	_, _ = fmt.Fprintf(b, "loosim_jobs_total{state=\"cancelled\"} %d\n", m.Jobs.Cancelled)
	_, _ = fmt.Fprintf(b, "loosim_jobs_total{state=\"rejected\"} %d\n", m.Jobs.Rejected)

	counter("loosim_cache_hits_total", "Result-cache hits.", float64(m.Cache.Hits))
	counter("loosim_cache_misses_total", "Result-cache misses.", float64(m.Cache.Misses))
	counter("loosim_cache_put_errors_total", "Failed result-cache writes.", float64(m.Cache.PutErrors))
	gauge("loosim_cache_hit_rate", "Cache hits over lookups.", m.Cache.HitRate)

	gauge("loosim_kips_jobs", "Jobs contributing to the KIPS statistics.", float64(m.KIPS.Jobs))
	gauge("loosim_kips_last", "Most recent job's throughput (thousand instructions per second).", m.KIPS.Last)
	gauge("loosim_kips_mean", "Mean per-job throughput.", m.KIPS.Mean)
	gauge("loosim_kips_p50", "Median per-job throughput.", float64(m.KIPS.P50))
	gauge("loosim_kips_p99", "99th-percentile per-job throughput.", float64(m.KIPS.P99))

	if len(m.Loops) > 0 {
		_, _ = fmt.Fprintf(b, "# HELP loosim_loop_events_total Loop events by loose loop.\n# TYPE loosim_loop_events_total counter\n")
		for _, l := range m.Loops {
			_, _ = fmt.Fprintf(b, "loosim_loop_events_total{loop=%q} %d\n", l.Loop, l.Events)
		}
		_, _ = fmt.Fprintf(b, "# HELP loosim_loop_delay_cycles Loop feedback delay in cycles.\n# TYPE loosim_loop_delay_cycles gauge\n")
		for _, l := range m.Loops {
			_, _ = fmt.Fprintf(b, "loosim_loop_delay_cycles{loop=%q,stat=\"mean\"} %s\n", l.Loop, promFloat(l.MeanDelay))
			_, _ = fmt.Fprintf(b, "loosim_loop_delay_cycles{loop=%q,stat=\"p99\"} %d\n", l.Loop, l.P99Delay)
		}
		_, _ = fmt.Fprintf(b, "# HELP loosim_loop_cycles_lost_total Cycles lost to loop slack by loose loop.\n# TYPE loosim_loop_cycles_lost_total counter\n")
		for _, l := range m.Loops {
			_, _ = fmt.Fprintf(b, "loosim_loop_cycles_lost_total{loop=%q} %d\n", l.Loop, l.CyclesLost)
		}
	}
	return b.Flush()
}

// promFloat renders a sample value: integers without a decimal point,
// everything else in Go's shortest-round-trip form (both are valid
// Prometheus floats).
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// CheckPromText validates Prometheus text-format output line by line:
// comments must be well-formed HELP/TYPE lines, samples must be
// "name[{labels}] value" with a parseable float value and a metric name
// matching the exposition grammar. It is a format check, not a scraper —
// enough for tests to catch a malformed encoder or handler without
// an external parser dependency.
func CheckPromText(text []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(text))
	n := 0
	samples := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("serve: prom line %d: malformed comment %q", n, line)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("serve: prom line %d: malformed TYPE %q", n, line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("serve: prom line %d: unknown type %q", n, fields[3])
				}
			}
			continue
		}
		name, rest, ok := splitSample(line)
		if !ok {
			return fmt.Errorf("serve: prom line %d: malformed sample %q", n, line)
		}
		if !validMetricName(name) {
			return fmt.Errorf("serve: prom line %d: bad metric name %q", n, name)
		}
		if _, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
			return fmt.Errorf("serve: prom line %d: bad value in %q: %w", n, line, err)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("serve: prom output has no samples")
	}
	return nil
}

// splitSample splits "name{labels} value" or "name value" into the metric
// name and the value text, validating label-block syntax along the way.
func splitSample(line string) (name, value string, ok bool) {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			return "", "", false
		}
		labels := line[i+1 : j]
		for _, pair := range strings.Split(labels, ",") {
			k, v, found := strings.Cut(pair, "=")
			if !found || k == "" || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", "", false
			}
		}
		return line[:i], line[j+1:], true
	}
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return "", "", false
	}
	return line[:i], line[i+1:], true
}

// validMetricName checks the exposition-format metric name grammar:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
