package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"p2pmalware/internal/analysis"
	"p2pmalware/internal/dataset"
	"p2pmalware/internal/malware"
)

func testOracle(t *testing.T) *catalogOracle {
	t.Helper()
	o, err := newCatalogOracle(malware.LimeWireCatalog(), malware.OpenFTCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// maliciousRecord is a correct record of the family's first variant.
func maliciousRecord(t *testing.T, o *catalogOracle, family string) dataset.ResponseRecord {
	t.Helper()
	sp := o.byFamily[family][0]
	return dataset.ResponseRecord{
		Network: dataset.LimeWire, Filename: "x.exe", Size: sp.size,
		Downloadable: true, Downloaded: true,
		BodySize: sp.size, BodyHash: sp.md5, Malware: family,
	}
}

func TestCatalogOracleAcceptsSpecimens(t *testing.T) {
	o := testOracle(t)
	for _, c := range []*malware.Catalog{malware.LimeWireCatalog(), malware.OpenFTCatalog()} {
		for _, f := range c.Families {
			r := maliciousRecord(t, o, f.Name)
			if err := o.checkRecord(&r); err != nil {
				t.Errorf("%s: %v", f.Name, err)
			}
		}
	}
	clean := dataset.ResponseRecord{Size: 1000, Downloadable: true, Downloaded: true, BodySize: 1000,
		BodyHash: "00000000000000000000000000000000"}
	if err := o.checkRecord(&clean); err != nil {
		t.Errorf("clean record: %v", err)
	}
}

func TestCatalogOracleRejectsWrongRecords(t *testing.T) {
	o := testOracle(t)
	good := maliciousRecord(t, o, "W32.Sivex.A")
	other := o.byFamily["W32.Dulmer.B"][0]
	cases := map[string]func(r *dataset.ResponseRecord){
		"wrong family": func(r *dataset.ResponseRecord) { r.Malware = "W32.Kratos.C" },
		"wrong size": func(r *dataset.ResponseRecord) {
			r.BodySize, r.Size = other.size, other.size
		},
		"wrong hash":          func(r *dataset.ResponseRecord) { r.BodyHash = other.md5 },
		"size not advertised": func(r *dataset.ResponseRecord) { r.Size++ },
		"clean specimen": func(r *dataset.ResponseRecord) {
			r.Malware = "" // a clean label on bytes that hash to a specimen
		},
	}
	for name, mutate := range cases {
		r := good
		mutate(&r)
		if err := o.checkRecord(&r); err == nil {
			t.Errorf("%s: accepted %+v", name, r)
		}
	}
}

func TestListOracleRejectsFlippedVerdictAndStaleVersion(t *testing.T) {
	base := []int64{100, 200, 300}
	reserved := []int64{1 << 31, 1<<31 + 1}
	o := newListOracle(base, reserved, 1)

	if err := o.checkVerdict(200, true, true, 1); err != nil {
		t.Fatalf("correct block: %v", err)
	}
	if err := o.checkVerdict(201, true, false, 1); err != nil {
		t.Fatalf("correct allow: %v", err)
	}
	if err := o.checkVerdict(200, false, false, 1); err != nil {
		t.Fatalf("non-downloadable allow: %v", err)
	}
	if err := o.checkVerdict(200, true, false, 1); err == nil {
		t.Error("flipped block accepted")
	}
	if err := o.checkVerdict(200, false, true, 1); err == nil {
		t.Error("block of a non-downloadable response accepted")
	}

	if err := o.update(true, 3); err == nil {
		t.Error("update that skipped a version accepted")
	}
	o = newListOracle(base, reserved, 1)
	if err := o.update(true, 2); err != nil {
		t.Fatal(err)
	}
	if err := o.checkVerdict(reserved[0], true, true, 2); err != nil {
		t.Errorf("reserved size after add: %v", err)
	}
	if err := o.checkVerdict(reserved[1], true, true, 2); err != nil {
		t.Errorf("second reserved size after add: %v", err)
	}
	if err := o.checkVerdict(reserved[0], true, false, 1); err == nil {
		t.Error("stale version accepted")
	}
	if err := o.checkVerdict(reserved[0], true, false, 2); err == nil {
		t.Error("flipped verdict on an added size accepted")
	}
	if err := o.update(false, 3); err != nil {
		t.Fatal(err)
	}
	if err := o.checkVerdict(reserved[0], true, false, 3); err != nil {
		t.Errorf("reserved size after remove: %v", err)
	}
}

func TestDiffRecordsFindsFirstDivergentQuery(t *testing.T) {
	epoch := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	interval := time.Hour
	rec := func(nw dataset.Network, seq int, name, servent string) dataset.ResponseRecord {
		return dataset.ResponseRecord{Time: epoch.Add(time.Duration(seq) * interval), Network: nw, Filename: name, ServentID: servent}
	}
	a, b := dataset.NewTrace(), dataset.NewTrace()
	for _, r := range []dataset.ResponseRecord{
		rec(dataset.LimeWire, 0, "a", "s"), rec(dataset.LimeWire, 1, "b", "s"),
		rec(dataset.LimeWire, 2, "c", "s"), rec(dataset.OpenFT, 0, "d", ""),
	} {
		a.Add(r)
		b.Add(r)
	}
	if n, _, err := diffRecords(a, b, epoch, interval); err != nil || n != 0 {
		t.Fatalf("identical traces: %d divergent, %v", n, err)
	}
	b.Records[2].ServentID = "t"                        // limewire query 2: one field differs
	b.Records[1].Time = b.Records[1].Time.Add(interval) // moved from query 1 to query 2
	n, first, err := diffRecords(a, b, epoch, interval)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || first != "limewire query 1" {
		t.Errorf("got %d divergent, first %q; want 2, limewire query 1", n, first)
	}
}

func TestStudyChecksOnSyntheticTrace(t *testing.T) {
	o := testOracle(t)
	epoch := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	interval := time.Hour
	tr := dataset.NewTrace()
	sivex := maliciousRecord(t, o, "W32.Sivex.A")
	add := func(nw dataset.Network, seq int, r dataset.ResponseRecord) {
		r.Network, r.Time = nw, epoch.Add(time.Duration(seq)*interval)
		tr.Add(r)
	}
	for seq := 0; seq < 8; seq++ {
		for i := 0; i < 70; i++ {
			add(dataset.LimeWire, seq, sivex)
		}
		for i := 0; i < 30; i++ {
			add(dataset.LimeWire, seq, dataset.ResponseRecord{Size: 1000, Downloadable: true, Downloaded: true, BodySize: 1000, BodyHash: "ab"})
		}
		add(dataset.OpenFT, seq, sivex)
		for i := 0; i < 30; i++ {
			add(dataset.OpenFT, seq, dataset.ResponseRecord{Size: 999, Downloadable: true, Downloaded: true, BodySize: 999, BodyHash: "cd"})
		}
	}
	tr.QueriesSent[dataset.LimeWire], tr.QueriesSent[dataset.OpenFT] = 8, 8
	if probs, failed := checkStudy(tr, o, epoch, interval, 8); len(probs) != 0 || failed != 0 {
		t.Fatalf("correct trace rejected: %d queries failed: %v", failed, probs)
	}
	// A record with the wrong body fails its own query only.
	bad := sivex
	bad.BodyHash = "00"
	add(dataset.OpenFT, 5, bad)
	if probs, failed := checkStudy(tr, o, epoch, interval, 8); len(probs) != 1 || failed != 1 {
		t.Errorf("bad record: %d queries failed, want 1: %v", failed, probs)
	}
	tr.Records = tr.Records[:len(tr.Records)-1]
	// A clean response of a blocked size is a false positive, a fault of
	// the whole trace, so every query fails.
	add(dataset.LimeWire, 7, dataset.ResponseRecord{Size: sivex.Size, Downloadable: true, Downloaded: true, BodySize: sivex.Size, BodyHash: "ef"})
	probs, failed := checkStudy(tr, o, epoch, interval, 8)
	if len(probs) != 1 || !strings.Contains(probs[0], "false positives") {
		t.Errorf("false positive not reported alone: %v", probs)
	}
	if failed != 16 {
		t.Errorf("false positive failed %d queries, want all 16", failed)
	}
}

func TestCheckTablesComparesReportCounts(t *testing.T) {
	tr := dataset.NewTrace()
	tr.QueriesSent[dataset.LimeWire], tr.QueriesSent[dataset.OpenFT] = 1, 1
	tr.Add(dataset.ResponseRecord{Network: dataset.LimeWire, Size: 1, Downloadable: true, Downloaded: true, BodyHash: "a", Malware: "W32.Sivex.A"})
	tr.Add(dataset.ResponseRecord{Network: dataset.LimeWire, Size: 2})
	tr.Add(dataset.ResponseRecord{Network: dataset.OpenFT, Size: 3, Downloadable: true, Downloaded: true, BodyHash: "b"})
	var buf bytes.Buffer
	if err := analysis.WriteReport(&buf, tr, analysis.ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	if probs := checkTables(buf.String(), tr); len(probs) != 0 {
		t.Fatalf("matching report rejected: %v", probs)
	}
	tr.Records[1].Downloadable = true
	if probs := checkTables(buf.String(), tr); len(probs) != 1 {
		t.Errorf("count mismatch not reported once: %v", probs)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := percentile(hundred, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
}

func TestSampleCounts(t *testing.T) {
	for _, c := range []struct {
		n        int
		p        float64
		beyondP  int
		minCount int
	}{{1000, 99, 10, 1000}, {999, 99, 9, 1000}, {100, 50, 50, 20}, {40, 75, 10, 40}} {
		if got := beyond(c.n, c.p); got != c.beyondP {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.beyondP)
		}
		if got := minSamples(c.p); got != c.minCount {
			t.Errorf("minSamples(p%v) = %d, want %d", c.p, got, c.minCount)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metrics this program
// prints and the metrics BENCHMARK.json declares the same.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, units map[string]string) {
		seen := map[string]bool{}
		for _, m := range declared {
			seen[m.Name] = true
			if units[m.Name] != m.Unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, program %q", kind, m.Name, m.Unit, units[m.Name])
			}
		}
		for name := range units {
			if !seen[name] {
				t.Errorf("%s %s printed but not declared", kind, name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, e2eUnits)
	compare("per_layer", spec.PerLayer, layerUnits)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s not in the program", w.Name)
		}
	}
}
