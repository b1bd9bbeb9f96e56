package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"indexlaunch/internal/metrics"
)

// samples is one scrape of a Prometheus text exposition: series name (with
// its label set, exactly as exposed) to value. Histogram buckets are dropped;
// _sum and _count stay.
type samples map[string]float64

// parseProm reads Prometheus text format. Comment lines and _bucket series
// are skipped; a malformed sample line is an error.
func parseProm(r io.Reader) (samples, error) {
	out := samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces; label
		// values may themselves contain spaces.
		end := strings.LastIndexByte(line, '}')
		sp := strings.IndexByte(line[end+1:], ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line without value: %q", line)
		}
		name := line[:end+1+sp]
		fields := strings.Fields(line[end+1+sp:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line without value: %q", line)
		}
		if strings.HasSuffix(family(name), "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// family strips the label set from a series name.
func family(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// add folds other into s series by series (counters of several processes
// sum into one cluster-wide view).
func (s samples) add(other samples) {
	for k, v := range other {
		s[k] += v
	}
}

// delta returns after - s for every series of after; a series absent before
// counts from zero.
func (s samples) delta(after samples) samples {
	d := samples{}
	for k, v := range after {
		d[k] = v - s[k]
	}
	return d
}

// sum adds up every series of one family, across label sets. A family that is
// not exposed at all sums to 0: the layer it belongs to did no work.
func (s samples) sum(fam string) float64 {
	var t float64
	for k, v := range s {
		if family(k) == fam {
			t += v
		}
	}
	return t
}

// scrapeURL fetches and parses one /metrics endpoint.
func scrapeURL(c *http.Client, base string) (samples, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseProm(resp.Body)
}

// scrapeRegistry renders an in-process registry through the same text
// exposition the daemons serve, so in-process and HTTP workloads share one
// parser and one set of series names.
func scrapeRegistry(reg *metrics.Registry) (samples, error) {
	var buf bytes.Buffer
	if err := metrics.WriteProm(&buf, reg.Gather()); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}
