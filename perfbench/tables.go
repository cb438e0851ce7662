package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"p2pmalware/internal/analysis"
	"p2pmalware/internal/dataset"
	"p2pmalware/internal/filter"
)

// tablesRun is one pass of the step a researcher runs after a study:
// p2pstudy's JSONL out and back in, p2panalyze's report, and p2pfilter's
// T5 evaluation and F5 sweep for both networks.
type tablesRun struct {
	total, write, read, report, eval time.Duration
	text                             string
}

// p2pfilter's defaults.
var (
	tablesTrainFrac = 0.25
	tablesSweep     = []int{1, 2, 3, 5, 10, 20, 50}
)

func runTables(tr *dataset.Trace, path string) (*tablesRun, error) {
	var t tablesRun
	start := time.Now()
	if err := writeTrace(path, tr); err != nil {
		return nil, err
	}
	t.write = time.Since(start)

	mark := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	back, err := dataset.ReadJSONL(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	t.read = time.Since(mark)

	mark = time.Now()
	var buf bytes.Buffer
	if err := analysis.WriteReport(&buf, back, analysis.ReportOptions{}); err != nil {
		return nil, err
	}
	t.report = time.Since(mark)

	mark = time.Now()
	train, eval := filter.SplitTrace(back, tablesTrainFrac)
	for _, nw := range []dataset.Network{dataset.LimeWire, dataset.OpenFT} {
		res := filter.Evaluate(filter.TrainSizeFilter(train, nw, filterK), eval, nw)
		pts := filter.SweepSizeFilter(train, eval, nw, tablesSweep)
		fmt.Fprintf(&buf, "T5 %s detected=%d/%d fp=%d sweep=%d\n", nw, res.Detected, res.Malicious, res.FalsePositives, len(pts))
	}
	t.eval = time.Since(mark)
	t.total = time.Since(start)
	t.text = buf.String()
	return &t, nil
}

// reportCounts reads each network's responses and downloadable counts
// from the report's T1 rows and its malicious count from the T2 rows.
func reportCounts(report string) (map[dataset.Network][3]int, error) {
	out := map[dataset.Network][3]int{}
	section := ""
	sc := bufio.NewScanner(strings.NewReader(report))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "== ") {
			section = line
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		nw := dataset.Network(fields[0])
		if nw != dataset.LimeWire && nw != dataset.OpenFT {
			continue
		}
		c := out[nw]
		switch {
		case strings.HasPrefix(section, "== T1:") && len(fields) >= 4:
			var err1, err2 error
			c[0], err1 = strconv.Atoi(fields[2])
			c[1], err2 = strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("report T1 row %q", line)
			}
		case strings.HasPrefix(section, "== T2:"):
			found := false
			for _, f := range fields[1:] {
				if v, ok := strings.CutPrefix(f, "malicious="); ok {
					n, err := strconv.Atoi(v)
					if err != nil {
						return nil, fmt.Errorf("report T2 row %q", line)
					}
					c[2], found = n, true
				}
			}
			if !found {
				return nil, fmt.Errorf("report T2 row %q", line)
			}
		}
		out[nw] = c
	}
	return out, nil
}

// checkTables compares the report's per-network counts with the
// benchmark's own.
func checkTables(report string, tr *dataset.Trace) []string {
	got, err := reportCounts(report)
	if err != nil {
		return []string{err.Error()}
	}
	var probs []string
	for nw, c := range countTrace(tr) {
		want := [3]int{c.responses, c.downloadable, c.malicious}
		if got[nw] != want {
			probs = append(probs, fmt.Sprintf("report %s responses/downloadable/malicious = %v, counted %v", nw, got[nw], want))
		}
	}
	return probs
}
