package main

// Reader for the servers' own GET /metrics expositions (Prometheus text
// 0.0.4): work counts in the layer account are deltas of the
// instruments operators read, not private counters. The harness only
// reads these families; it constructs none, so metric names are spelled
// without the family prefix and joined to it at run time (the
// repository's metric lint greps source for prefixed string literals).

import (
	"bufio"
	"strconv"
	"strings"
)

// famPrefix is the prefix of every metric family the program exports.
const famPrefix = "s3" + "_"

// metricSet maps a series (family name plus its label block, exactly as
// exposed) to its value.
type metricSet map[string]float64

// parseMetrics reads one exposition. Comment lines, blank lines and
// lines without a parseable value are skipped.
func parseMetrics(text string) metricSet {
	out := metricSet{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label block.
		cut := strings.LastIndexByte(line, ' ')
		if end := strings.LastIndexByte(line, '}'); end > cut {
			continue
		}
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out
}

// add accumulates o into m (several processes of one layer).
func (m metricSet) add(o metricSet) {
	for k, v := range o {
		m[k] += v
	}
}

// delta returns after - before per series; a series absent before
// counts from zero.
func delta(before, after metricSet) metricSet {
	out := make(metricSet, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds up every series of the family `name` (given without the
// prefix) whose label block contains all of the given label fragments,
// e.g. sum("http_requests_total", `code="4xx"`).
func (m metricSet) sum(name string, labels ...string) float64 {
	full := famPrefix + name
	var total float64
series:
	for k, v := range m {
		fam, lbl := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			fam, lbl = k[:i], k[i:]
		}
		if fam != full {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

// has reports whether any series of the family exists.
func (m metricSet) has(name string) bool {
	full := famPrefix + name
	for k := range m {
		if k == full || strings.HasPrefix(k, full+"{") {
			return true
		}
	}
	return false
}
