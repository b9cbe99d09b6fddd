package main

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// A promSet is one scrape of a Prometheus text exposition: sample value
// by series key. A key is the metric name followed by its labels sorted
// by name, as seriesKey spells it, so lookups need not know the order a
// daemon renders them in.
type promSet map[string]float64

// seriesKey spells the key of name with the given label pairs
// (name1, value1, name2, value2, ...).
func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+strconv.Quote(labels[i+1]))
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// parseProm parses the text exposition format (comments skipped; an
// optional trailing timestamp ignored).
func parseProm(text []byte) (promSet, error) {
	s := promSet{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		key, rest, err := parseSeries(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value", ln)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		s[key] = v
	}
	return s, sc.Err()
}

// parseSeries splits a sample line into its series key and the text after
// the series.
func parseSeries(line string) (key, rest string, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return "", "", fmt.Errorf("no value in %q", line)
	}
	name := line[:i]
	if line[i] != '{' {
		return name, line[i:], nil
	}
	var labels []string
	p := i + 1
	for {
		for p < len(line) && (line[p] == ',' || line[p] == ' ') {
			p++
		}
		if p < len(line) && line[p] == '}' {
			return seriesKey(name, labels...), line[p+1:], nil
		}
		eq := strings.IndexByte(line[p:], '=')
		if eq < 0 || p+eq+1 >= len(line) || line[p+eq+1] != '"' {
			return "", "", fmt.Errorf("bad labels in %q", line)
		}
		lname := strings.TrimSpace(line[p : p+eq])
		p += eq + 2
		var val strings.Builder
		for ; p < len(line) && line[p] != '"'; p++ {
			c := line[p]
			if c == '\\' && p+1 < len(line) {
				p++
				if c = line[p]; c == 'n' {
					c = '\n'
				}
			}
			val.WriteByte(c)
		}
		if p >= len(line) {
			return "", "", fmt.Errorf("unterminated label value in %q", line)
		}
		p++ // closing quote
		labels = append(labels, lname, val.String())
	}
}

// delta returns after minus before for every series in after. Series
// absent before count from zero.
func delta(before, after promSet) promSet {
	d := make(promSet, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sumOver sums one series across several scrapes.
func sumOver(sets []promSet, name string, labels ...string) float64 {
	key := seriesKey(name, labels...)
	t := 0.0
	for _, s := range sets {
		t += s[key]
	}
	return t
}
