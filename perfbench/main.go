// Command perfbench is the repository's end-to-end benchmark. One round
// is the journey a user of this reproduction makes: run the two-network
// study (twice, with the same seed, to check that its records
// reproduce), compute the paper's tables from its trace, then start
// cmd/filterd with a block list trained from that trace and load it from
// two connections. Every output is checked against the benchmark's own
// computations. Run it from the repository root through run.sh, which
// builds this binary and cmd/filterd from source:
//
//	bash perfbench/run.sh --workload study-clean --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/malware"
)

// workload is one input set; see README.md for why each exists.
type workload struct {
	faults   string // faultsim profile for the study; "" is fault-free
	listSize int    // served block list is filled up to this many sizes
	chunks   int    // serving chunks per round
}

// servingChunk is the same for every workload: about 0.1-0.2 s of
// traffic. 64000 line checks make about 800 query-sized batches, and a
// check chunk's 1000 HTTP checks are ten times the
// minSamples(tailPercentile) each chunk's tail needs. An update chunk's
// 400 updates span most of its line traffic: 100 covered only its first
// few milliseconds, and their median swung by a factor of two from one
// chunk to the next. These are sample sizes, not a model of real
// traffic; see README.md.
var servingChunk = chunkPlan{lineChecks: 64000, httpChecks: 1000, updates: 400}

// chunksPerDaemon is how many chunks one daemon serves before it is
// stopped; the last of them is an update chunk. A round starts a fresh
// daemon for each group, so its serving figures sample several daemon
// processes as well as several moments. One update chunk in three gives
// every workload at least twelve of them per run.
const chunksPerDaemon = 3

// tailPercentile is the latency tail reported; see README.md for why it
// is not p99.
const tailPercentile = 90

var workloads = map[string]workload{
	"study-clean":   {chunks: 12},
	"study-faulted": {faults: "canonical", chunks: 48},
	"filterd-mixed": {listSize: 8192, chunks: 36},
}

// studySeed is the study's seed in every workload: p2pstudy's default.
// See README.md for why it does not follow --seed.
const studySeed = 2006

// tablesRuns is how many times each round runs the tables step.
const tablesRuns = 4

// reservedSizes is how many sizes each update adds or removes: the
// largest push p2pstudy -filterd makes at k=10, ten sizes per network.
// The line connection never asks about them.
const reservedSizes = 2 * filterK

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-"+childFlag {
		if err := childMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench study:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: study-clean, study-faulted or filterd-mixed")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "start rounds until this many seconds have passed")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	filterd := flag.String("filterd", "", "path of the built cmd/filterd binary")
	work := flag.String("work", ".bench_build/work", "scratch directory")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *filterd == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (study-clean, study-faulted, filterd-mixed), --filterd, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	b := &bench{w: w, seed: *seed, traced: *trace == 1, filterd: *filterd, dir: dir, e2e: map[string][]float64{}, layers: map[string][]float64{}}
	out, err := b.run(time.Duration(*seconds) * time.Second)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type bench struct {
	w       workload
	seed    uint64
	traced  bool
	filterd string
	dir     string
	oracle  *catalogOracle

	attempted, failed int
	problems          []string
	e2e               map[string][]float64 // samples per end-to-end quantity
	layers            map[string][]float64 // one value per round per layer metric
	daemonCPU         float64              // serving daemons' CPU seconds over all chunks
	daemonChecks      int                  // checks those chunks sent
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) run(seconds time.Duration) (*result, error) {
	var err error
	if b.oracle, err = newCatalogOracle(malware.LimeWireCatalog(), malware.OpenFTCatalog()); err != nil {
		return nil, err
	}
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < seconds; r++ {
		if err := b.round(r); err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := &result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed}
	if b.traced {
		res.Metrics, err = b.layerMetrics()
	} else {
		res.Metrics, err = b.endToEnd()
	}
	return res, err
}

// derive is SplitMix64 over (seed, stream): independent, reproducible
// seeds for each input the benchmark makes.
func derive(seed, stream uint64) uint64 {
	z := seed + stream*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) round(r int) error {
	dir := filepath.Join(b.dir, strconv.Itoa(r))
	seed := uint64(studySeed)
	// Two studies with the same seed and config. In a traced run the
	// second one carries the wall-time spans; the first stays untraced so
	// the tracing overhead can be read off. Half of the round's tables
	// runs and serving chunks come between the two studies and half
	// after, so each round samples the machine at two moments.
	a, err := runStudyProcess(filepath.Join(dir, "a"), seed, b.w.faults, false)
	if err != nil {
		return err
	}
	b.recordStudy(a, true)
	f, err := newFeed(dir, a.Trace, b.w.listSize, derive(b.seed, uint64(100+r)))
	if err != nil {
		return err
	}
	if err := b.tables(dir, a.Trace, tablesRuns/2); err != nil {
		return err
	}
	if err := b.serve(f, b.w.chunks/2); err != nil {
		return err
	}

	c, err := runStudyProcess(filepath.Join(dir, "b"), seed, b.w.faults, b.traced)
	if err != nil {
		return err
	}
	b.recordStudy(c, !b.traced)
	if b.traced {
		for k, v := range c.Layers {
			b.layers[k] = append(b.layers[k], v)
		}
		b.layers["traced.overhead_s"] = append(b.layers["traced.overhead_s"], c.WallS-a.WallS)
	}

	// Reproducibility: one operation per round.
	b.attempted++
	div, first, err := diffRecords(a.Trace, c.Trace, studyEpoch, queryInterval)
	if err != nil {
		return err
	}
	if div > 0 {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: round %d: %d of %d queries diverge between same-seed runs; first: %s\n",
			r, div, studyQueries, first)
	}
	b.layers["core.divergent_queries"] = append(b.layers["core.divergent_queries"], float64(div))

	if err := b.tables(dir, a.Trace, tablesRuns-tablesRuns/2); err != nil {
		return err
	}
	if err := b.serve(f, b.w.chunks-b.w.chunks/2); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve: %d chunks; line %.0f checks/s, http p50 %.1fus, update p50 %.3fms\n",
		b.w.chunks, median(b.e2e["line_cps"]), median(b.e2e["http_p50_us"]), median(b.e2e["update_p50"]))
	if b.traced {
		var stream []probe
		for _, q := range f.stream.lineBatches(4 * servingChunk.lineChecks) {
			stream = append(stream, q...)
		}
		serial, par := checkReplay(f.list, stream)
		b.layers["filtersvc.check_ns"] = append(b.layers["filtersvc.check_ns"], serial)
		b.layers["filtersvc.check_par_ns"] = append(b.layers["filtersvc.check_par_ns"], par)
		b.layers["filtersvc.parse_ns"] = append(b.layers["filtersvc.parse_ns"], parseReplay(stream))
		b.layers["filtersvc.replace_ms"] = append(b.layers["filtersvc.replace_ms"], replaceReplay(f.list))
		b.layers["gen.cpu_s"] = append(b.layers["gen.cpu_s"], f.genCPU)
		d, n, err := scanReplay(a.Trace, b.oracle, derive(b.seed, 3))
		if err != nil {
			return err
		}
		b.layers["scanner.replay_ms"] = append(b.layers["scanner.replay_ms"], ms(d))
		b.layers["scanner.replay_mb_per_s"] = append(b.layers["scanner.replay_mb_per_s"], float64(n)/(1<<20)/d.Seconds())
	}
	return nil
}

// recordStudy counts a study's queries as operations, checks its trace
// and, when sample is set, keeps its figures as end-to-end samples.
func (b *bench) recordStudy(s *studyRun, sample bool) {
	fmt.Fprintf(os.Stderr, "perfbench: study: setup %.4fs wall %.3fs cpu %.3fs rss %.1fMB\n", median(s.SetupS), s.WallS, s.CPUS, s.MaxRSSMB)
	if sample {
		b.e2e["study_setup_s"] = append(b.e2e["study_setup_s"], s.SetupS...)
		b.e2e["study_wall_s"] = append(b.e2e["study_wall_s"], s.WallS)
		b.e2e["study_cpu_s"] = append(b.e2e["study_cpu_s"], s.CPUS)
		b.e2e["study_max_rss_mb"] = append(b.e2e["study_max_rss_mb"], s.MaxRSSMB)
	}
	b.attempted += studyQueries
	probs, failed := checkStudy(s.Trace, b.oracle, studyEpoch, queryInterval, queriesPerNet)
	b.failed += failed
	for _, p := range probs {
		b.problem("study: %s", p)
	}
}

// tables runs the tables step n times, one operation each.
func (b *bench) tables(dir string, tr *dataset.Trace, n int) error {
	for i := 0; i < n; i++ {
		b.attempted++
		runtime.GC()
		cpu0 := processCPU()
		t, err := runTables(tr, filepath.Join(dir, "tables.jsonl"))
		if err != nil {
			return err
		}
		b.e2e["tables_cpu_s"] = append(b.e2e["tables_cpu_s"], processCPU()-cpu0)
		b.e2e["tables_wall_s"] = append(b.e2e["tables_wall_s"], t.total.Seconds())
		probs := checkTables(t.text, tr)
		if len(probs) > 0 {
			b.failed++
		}
		for _, p := range probs {
			b.problem("tables: %s", p)
		}
		if b.traced {
			b.layers["dataset.write_ms"] = append(b.layers["dataset.write_ms"], ms(t.write))
			b.layers["dataset.read_ms"] = append(b.layers["dataset.read_ms"], ms(t.read))
			b.layers["analysis.report_ms"] = append(b.layers["analysis.report_ms"], ms(t.report))
			b.layers["filter.eval_ms"] = append(b.layers["filter.eval_ms"], ms(t.eval))
		}
	}
	return nil
}

// pushList is the list p2pstudy -filterd pushes for a trace: the union of
// the benchmark's own k=10 lists per network, trained on the whole trace.
func pushList(tr *dataset.Trace) []int64 {
	seen := map[int64]bool{}
	var list []int64
	for _, nw := range []dataset.Network{dataset.LimeWire, dataset.OpenFT} {
		for _, s := range trainSizes(tr.Records, nw, filterK) {
			if !seen[s] {
				seen[s] = true
				list = append(list, s)
			}
		}
	}
	return list
}

// servedList is the block list the daemon preloads: pushList filled with
// seeded sizes up to the workload's scale.
func servedList(tr *dataset.Trace, size int, rng *rand.Rand) []int64 {
	list := pushList(tr)
	seen := map[int64]bool{}
	for _, s := range list {
		seen[s] = true
	}
	for len(list) < size {
		s := 1 + rng.Int64N(maxListSize)
		if !seen[s] {
			seen[s] = true
			list = append(list, s)
		}
	}
	return list
}

// Filler sizes are drawn below maxListSize and reserved sizes at or above
// reservedBase, above every advertised size a study produces.
const (
	maxListSize  = 1 << 30
	reservedBase = 1 << 31
)

// reservedList draws the sizes updates add and remove.
func reservedList(rng *rand.Rand) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for len(out) < reservedSizes {
		s := reservedBase + rng.Int64N(maxListSize)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// checkStream is the trace as a client checks it: every response's
// advertised size with its downloadable flag, grouped by query in trace
// order. Each group is one line-protocol batch, the hits a client checks
// together when a query's results arrive.
type checkStream struct {
	queries  [][]probe
	flat     []probe
	nextQ    int // next query the line connection sends
	nextHTTP int // next response the HTTP connection checks
}

func newCheckStream(tr *dataset.Trace, rng *rand.Rand) *checkStream {
	cs := &checkStream{}
	index := map[queryKey]int{}
	for i := range tr.Records {
		r := &tr.Records[i]
		p := probe{size: r.Size, downloadable: r.Downloadable}
		k := queryKey{r.Network, querySeq(r, studyEpoch, queryInterval)}
		q, ok := index[k]
		if !ok {
			q = len(cs.queries)
			index[k] = q
			cs.queries = append(cs.queries, nil)
		}
		cs.queries[q] = append(cs.queries[q], p)
		cs.flat = append(cs.flat, p)
	}
	if len(cs.flat) > 0 {
		cs.nextQ, cs.nextHTTP = rng.IntN(len(cs.queries)), rng.IntN(len(cs.flat))
	}
	return cs
}

// lineBatches takes the next queries' batches, the last one cut short so
// that they hold exactly n checks.
func (cs *checkStream) lineBatches(n int) [][]probe {
	var out [][]probe
	for n > 0 {
		q := cs.queries[cs.nextQ]
		cs.nextQ = (cs.nextQ + 1) % len(cs.queries)
		if len(q) > n {
			q = q[:n]
		}
		out = append(out, q)
		n -= len(q)
	}
	return out
}

// httpChecks takes the next n responses, one check each.
func (cs *checkStream) httpChecks(n int) []probe {
	out := make([]probe, n)
	for i := range out {
		out[i] = cs.flat[cs.nextHTTP]
		cs.nextHTTP = (cs.nextHTTP + 1) % len(cs.flat)
	}
	return out
}

// makeChunk takes one chunk's inputs from the stream.
func makeChunk(cs *checkStream, plan chunkPlan, update bool) *chunk {
	ch := &chunk{update: update, batches: cs.lineBatches(plan.lineChecks)}
	if !update {
		ch.http = cs.httpChecks(plan.httpChecks)
	}
	return ch
}

// feed is what a round serves: the block list the daemons preload (also
// written to path), the reserved set updates toggle, the check stream,
// and the generator CPU spent so far.
type feed struct {
	list, reserved []int64
	stream         *checkStream
	path           string
	genCPU         float64
}

func newFeed(dir string, tr *dataset.Trace, listSize int, seed uint64) (*feed, error) {
	if len(tr.Records) == 0 {
		return nil, fmt.Errorf("study trace has no responses to check")
	}
	for i := range tr.Records {
		if tr.Records[i].Size >= reservedBase {
			return nil, fmt.Errorf("advertised size %d reaches the reserved range", tr.Records[i].Size)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xF17E))
	f := &feed{reserved: reservedList(rng), path: filepath.Join(dir, "blocklist.txt")}
	f.list = servedList(tr, listSize, rng)
	f.stream = newCheckStream(tr, rng)
	return f, writeList(f.path, f.list)
}

// serve runs n chunks of traffic, chunksPerDaemon to each of a series of
// daemons.
func (b *bench) serve(f *feed, n int) error {
	if n%chunksPerDaemon != 0 {
		return fmt.Errorf("%d chunks do not split into groups of %d", n, chunksPerDaemon)
	}
	for i := 0; i < n/chunksPerDaemon; i++ {
		if err := b.serveDaemon(f); err != nil {
			return err
		}
	}
	return nil
}

// serveDaemon starts a daemon with the feed's block list, timing the
// start to its first answered check, serves it chunksPerDaemon chunks,
// checks its own check count and stops it, keeping its peak memory.
// Only check chunks give the check latencies and the daemon's CPU per
// check, so install work does not mix into them.
func (b *bench) serveDaemon(f *feed) error {
	p := f.stream.httpChecks(1)[0]
	start := time.Now()
	d, err := startDaemon(b.filterd, f.path)
	if err != nil {
		return err
	}
	defer d.kill()
	block, v, err := d.check(p.size, p.downloadable)
	if err != nil {
		return err
	}
	b.e2e["filterd_setup_s"] = append(b.e2e["filterd_setup_s"], time.Since(start).Seconds())
	b.attempted++
	o := newListOracle(f.list, f.reserved, v)
	if err := o.checkVerdict(p.size, p.downloadable, block, v); err != nil {
		b.failed++
		b.problem("filterd probe: %v", err)
	}
	lc, err := dialLine(d.lineAddr)
	if err != nil {
		return err
	}
	defer lc.conn.Close()

	plan := servingChunk
	checks := int64(1)
	for c := 0; c < chunksPerDaemon; c++ {
		update := c == chunksPerDaemon-1
		ch := makeChunk(f.stream, plan, update)
		if need := minSamples(tailPercentile); len(ch.batches) < need || (!update && len(ch.http) < need) {
			return fmt.Errorf("a chunk needs %d line batches and HTTP checks for its p%v", need, tailPercentile)
		}
		runtime.GC()
		gen0 := processCPU()
		d0, err := d.cpuSeconds()
		if err != nil {
			return err
		}
		res, err := serveChunk(d, lc, ch, plan, f.reserved, o)
		if err != nil {
			return err
		}
		d1, err := d.cpuSeconds()
		if err != nil {
			return err
		}
		f.genCPU += processCPU() - gen0
		checks += int64(plan.checks(update, len(f.reserved)))
		b.attempted += plan.ops(update, len(f.reserved))
		b.failed += res.failed
		for _, p := range res.problems {
			b.problem("filterd: %s", p)
		}
		if update {
			b.e2e["update_p50"] = append(b.e2e["update_p50"], percentile(res.updateMS, 50))
			continue
		}
		b.daemonCPU += d1 - d0
		b.daemonChecks += plan.checks(false, 0)
		for name, v := range map[string]float64{
			"line_cps":     float64(plan.lineChecks) / res.lineElapsed.Seconds(),
			"line_p50_us":  percentile(res.lineBatchUS, 50),
			"line_tail_us": percentile(res.lineBatchUS, tailPercentile),
			"http_p50_us":  percentile(res.httpUS, 50),
			"http_tail_us": percentile(res.httpUS, tailPercentile),
		} {
			b.e2e[name] = append(b.e2e[name], v)
		}
	}

	lc.conn.Close()
	st, err := d.status()
	if err != nil {
		return err
	}
	b.attempted++
	if st.Checks != checks {
		b.failed++
		b.problem("filterd /status counts %d checks, sent %d", st.Checks, checks)
	}
	rss, err := d.stop()
	if err != nil {
		return err
	}
	b.e2e["filterd_max_rss_mb"] = append(b.e2e["filterd_max_rss_mb"], rss)
	return nil
}

func writeList(path string, list []int64) error {
	buf := make([]byte, 0, 12*len(list))
	for _, s := range list {
		buf = strconv.AppendInt(buf, s, 10)
		buf = append(buf, '\n')
	}
	return os.WriteFile(path, buf, 0o644)
}

// The metric tables: name -> unit. BENCHMARK.json lists the same names;
// TestMetricTablesMatchBenchmarkJSON holds the two together.
var e2eUnits = map[string]string{
	"setup_s":                  "s",
	"study_wall_s":             "s",
	"study_cpu_s":              "s",
	"study_max_rss_mb":         "MB",
	"tables_cpu_s":             "s",
	"filterd_max_rss_mb":       "MB",
	"filterd_cpu_us_per_check": "us",
	"line_batch_p50_us":        "us",
	"http_check_p50_us":        "us",
	"update_p50_ms":            "ms",
}

var layerUnits = map[string]string{
	"netsim.build_ms":           "ms",
	"scanner.engine_ms":         "ms",
	"scanner.replay_ms":         "ms",
	"scanner.replay_mb_per_s":   "MB/s",
	"core.setup_ms":             "ms",
	"core.collect_wait_ms":      "ms",
	"core.collect_ms":           "ms",
	"core.fetch_wait_ms":        "ms",
	"core.fetch_ms":             "ms",
	"core.commit_hold_ms":       "ms",
	"core.scan_ms":              "ms",
	"core.commit_ms":            "ms",
	"core.queries":              "count",
	"core.responses":            "count",
	"core.downloads":            "count",
	"core.attempts":             "count",
	"core.retries":              "count",
	"core.alt_source":           "count",
	"core.backoff_ms":           "ms",
	"core.fetch_yield":          "ratio",
	"core.divergent_queries":    "count",
	"gnutella.msgs_per_query":   "msgs/query",
	"openft.packets_per_query":  "packets/query",
	"runtime.gc_cpu_ms":         "ms",
	"runtime.alloc_mb":          "MB",
	"dataset.write_ms":          "ms",
	"dataset.read_ms":           "ms",
	"analysis.report_ms":        "ms",
	"filter.eval_ms":            "ms",
	"filtersvc.check_ns":        "ns",
	"filtersvc.check_par_ns":    "ns",
	"filtersvc.parse_ns":        "ns",
	"filtersvc.replace_ms":      "ms",
	"filterd.start_ms":          "ms",
	"filterd.line_checks_per_s": "checks/s",
	"filterd.line_batch_p90_us": "us",
	"filterd.http_check_p90_us": "us",
	"tables.wall_s":             "s",
	"gen.cpu_s":                 "s",
	"traced.overhead_s":         "s",
}

// endToEnd reduces the untraced samples to the end-to-end metrics. The
// serving figures are medians over chunks of each chunk's figure.
func (b *bench) endToEnd() (map[string]metric, error) {
	v := map[string]float64{
		"setup_s":                  median(b.e2e["study_setup_s"]) + median(b.e2e["filterd_setup_s"]),
		"study_wall_s":             median(b.e2e["study_wall_s"]),
		"study_cpu_s":              median(b.e2e["study_cpu_s"]),
		"study_max_rss_mb":         median(b.e2e["study_max_rss_mb"]),
		"tables_cpu_s":             median(b.e2e["tables_cpu_s"]),
		"filterd_max_rss_mb":       median(b.e2e["filterd_max_rss_mb"]),
		"filterd_cpu_us_per_check": b.daemonCPU * 1e6 / float64(b.daemonChecks),
		"line_batch_p50_us":        median(b.e2e["line_p50_us"]),
		"http_check_p50_us":        median(b.e2e["http_p50_us"]),
		"update_p50_ms":            median(b.e2e["update_p50"]),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d study runs, %d tables runs, %d serving chunks\n",
		len(b.e2e["study_wall_s"]), len(b.e2e["tables_cpu_s"]), len(b.e2e["line_cps"]))
	return withUnits(v, e2eUnits)
}

// layerMetrics reduces the traced run's per-round values to medians, and
// reports beside them the serving and tables figures whose run-to-run
// spread is too wide for an end-to-end bound (see README.md).
func (b *bench) layerMetrics() (map[string]metric, error) {
	b.layers["filterd.start_ms"] = []float64{median(b.e2e["filterd_setup_s"]) * 1e3}
	b.layers["filterd.line_checks_per_s"] = []float64{median(b.e2e["line_cps"])}
	b.layers["filterd.line_batch_p90_us"] = []float64{median(b.e2e["line_tail_us"])}
	b.layers["filterd.http_check_p90_us"] = []float64{median(b.e2e["http_tail_us"])}
	b.layers["tables.wall_s"] = []float64{median(b.e2e["tables_wall_s"])}
	v := map[string]float64{}
	for name, xs := range b.layers {
		v[name] = median(xs)
	}
	return withUnits(v, layerUnits)
}

func withUnits(v map[string]float64, units map[string]string) (map[string]metric, error) {
	out := map[string]metric{}
	var missing []string
	for name, unit := range units {
		x, ok := v[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		out[name] = metric{Value: x, Unit: unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("no value for %v", missing)
	}
	return out, nil
}
