package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"p2pmalware/internal/core"
	"p2pmalware/internal/dataset"
	"p2pmalware/internal/faultsim"
	"p2pmalware/internal/malware"
	"p2pmalware/internal/netsim"
	"p2pmalware/internal/obs"
	"p2pmalware/internal/scanner"
	"p2pmalware/internal/simclock"
)

// Study run length. Every other setting is what p2pstudy uses when given
// no flags: 10ms quiesce, GOMAXPROCS workers, a daily progress event.
const (
	studyDays      = 2
	queriesPerDay  = 60
	queriesPerNet  = studyDays * queriesPerDay
	studyQueries   = 2 * queriesPerNet // both networks
	studyQuiesce   = 10 * time.Millisecond
	studyProgress  = 24 * time.Hour
	queryInterval  = 24 * time.Hour / queriesPerDay
	setupRuns      = 3 // NewStudy calls per study process; Run uses the last
	childFlag      = "child-study"
	recordsFile    = "records.jsonl"
	childStatsFile = "result.json"
)

var studyEpoch = simclock.DefaultEpoch

// childResult is what one study process measured about itself.
type childResult struct {
	SetupS   []float64 `json:"setup_s"`
	WallS    float64   `json:"wall_s"`
	CPUS     float64   `json:"cpu_s"`
	MaxRSSMB float64   `json:"max_rss_mb"`
	// Layers holds the traced run's per-layer figures; empty untraced.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// studyRun is one finished study process as the parent sees it.
type studyRun struct {
	childResult
	Trace *dataset.Trace
}

// runStudyProcess runs one study in a fresh process of this binary, so
// that its peak resident memory belongs to the study alone.
func runStudyProcess(dir string, seed uint64, faults string, traced bool) (*studyRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-"+childFlag, "-study-seed", strconv.FormatUint(seed, 10),
		"-faults", faults, "-traced="+strconv.FormatBool(traced), "-out", dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("study process: %w", err)
	}
	run := &studyRun{}
	b, err := os.ReadFile(filepath.Join(dir, childStatsFile))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &run.childResult); err != nil {
		return nil, fmt.Errorf("study result: %w", err)
	}
	f, err := os.Open(filepath.Join(dir, recordsFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if run.Trace, err = dataset.ReadJSONL(f); err != nil {
		return nil, err
	}
	return run, nil
}

// childMain is the study process: construct, run, measure, write.
func childMain(args []string) error {
	fs := flag.NewFlagSet(childFlag, flag.ContinueOnError)
	fs.Bool(childFlag, true, "")
	seed := fs.Uint64("study-seed", 0, "")
	faults := fs.String("faults", "", "")
	traced := fs.Bool("traced", false, "")
	out := fs.String("out", "", "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	plan, err := faultsim.Load(*faults)
	if err != nil {
		return err
	}
	cfg := core.StudyConfig{
		Seed: *seed, Days: studyDays, QueriesPerDay: queriesPerDay,
		Quiesce: studyQuiesce, ProgressEvery: studyProgress,
		SpanWallLatency: *traced, Faults: plan,
		LimeWire: &netsim.LimeWireConfig{Seed: *seed},
		OpenFT:   &netsim.OpenFTConfig{Seed: *seed},
	}
	var res childResult
	var study *core.Study
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if study, err = core.NewStudy(cfg); err != nil {
			return err
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}

	var before obs.Snapshot
	rt0 := readRuntime()
	if *traced {
		before = obs.Default.Snapshot()
	}
	cpu0 := processCPU()
	t1 := time.Now()
	tr, err := study.Run()
	if err != nil {
		return err
	}
	res.WallS = time.Since(t1).Seconds()
	res.CPUS = processCPU() - cpu0
	rt1 := readRuntime()
	if res.MaxRSSMB, err = peakRSSMB("self"); err != nil {
		return err
	}

	if err := writeTrace(filepath.Join(*out, recordsFile), tr); err != nil {
		return err
	}
	if *traced {
		res.Layers = studyLayers(study, tr, before, obs.Default.Snapshot())
		res.Layers["runtime.gc_cpu_ms"] = (rt1.gcCPU - rt0.gcCPU) * 1e3
		res.Layers["runtime.alloc_mb"] = (rt1.allocBytes - rt0.allocBytes) / (1 << 20)
		res.Layers["core.setup_ms"] = median(res.SetupS) * 1e3
		// Layer timings around public calls, taken after the measured
		// run so they cannot disturb it.
		if res.Layers["netsim.build_ms"], err = timeNetworkBuilds(*seed); err != nil {
			return err
		}
		t := time.Now()
		if _, err := scanner.FromCatalogs(malware.LimeWireCatalog(), malware.OpenFTCatalog()); err != nil {
			return err
		}
		res.Layers["scanner.engine_ms"] = ms(time.Since(t))
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(*out, childStatsFile), b, 0o644)
}

func writeTrace(path string, tr *dataset.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeNetworkBuilds times BuildLimeWire plus BuildOpenFT, each a separate
// call with the study's population seed, and tears both down.
func timeNetworkBuilds(seed uint64) (float64, error) {
	t := time.Now()
	lw, err := netsim.BuildLimeWire(netsim.LimeWireConfig{Seed: seed})
	if err != nil {
		return 0, err
	}
	d := time.Since(t)
	lw.Close()
	t = time.Now()
	ft, err := netsim.BuildOpenFT(netsim.OpenFTConfig{Seed: seed})
	if err != nil {
		return 0, err
	}
	d += time.Since(t)
	ft.Close()
	return ms(d), nil
}

// studyLayers reduces the traced run's spans, records and counters to
// the per-layer figures.
func studyLayers(study *core.Study, tr *dataset.Trace, before, after obs.Snapshot) map[string]float64 {
	l := map[string]float64{}
	stageMetric := map[string]string{
		obs.StageCollectWait: "core.collect_wait_ms",
		obs.StageCollect:     "core.collect_ms",
		obs.StageFetchWait:   "core.fetch_wait_ms",
		obs.StageFetch:       "core.fetch_ms",
		obs.StageCommitHold:  "core.commit_hold_ms",
		obs.StageScan:        "core.scan_ms",
		obs.StageCommit:      "core.commit_ms",
	}
	for _, name := range stageMetric {
		l[name] = 0
	}
	var attempts, ok, retries, backoffUS int64
	for _, sp := range study.Spans() {
		if name, hit := stageMetric[sp.Stage]; hit && sp.WallUS >= 0 {
			l[name] += float64(sp.WallUS) / 1e3
		}
		if sp.Stage == obs.StageAttempt {
			attempts++
			if sp.Fate == "ok" {
				ok++
			}
			if sp.Retry > 1 {
				retries++
			}
			backoffUS += sp.BackoffUS
		}
	}
	var downloads, alt int
	for i := range tr.Records {
		if tr.Records[i].Downloaded {
			downloads++
		}
		if tr.Records[i].AltSource != "" {
			alt++
		}
	}
	lwQ, ftQ := tr.QueriesSent[dataset.LimeWire], tr.QueriesSent[dataset.OpenFT]
	l["core.queries"] = float64(lwQ + ftQ)
	l["core.responses"] = float64(len(tr.Records))
	l["core.downloads"] = float64(downloads)
	l["core.attempts"] = float64(attempts)
	l["core.retries"] = float64(retries)
	l["core.alt_source"] = float64(alt)
	l["core.backoff_ms"] = float64(backoffUS) / 1e3
	l["core.fetch_yield"] = 0
	if attempts > 0 {
		l["core.fetch_yield"] = float64(ok) / float64(attempts)
	}
	l["gnutella.msgs_per_query"] = perQuery(counterDelta(before, after, "p2p_messages_tx_total", `network="gnutella"`), lwQ)
	l["openft.packets_per_query"] = perQuery(counterDelta(before, after, "p2p_messages_tx_total", `network="openft"`), ftQ)
	return l
}

// counterDelta sums, over every label set of the named counter that
// contains label, how much it grew between two snapshots.
func counterDelta(before, after obs.Snapshot, name, label string) int64 {
	var d int64
	for key, v := range after.Counters {
		if strings.HasPrefix(key, name+"{") && strings.Contains(key, label) {
			d += v - before.Counters[key]
		}
	}
	return d
}

func perQuery(n int64, queries int) float64 {
	if queries == 0 {
		return 0
	}
	return float64(n) / float64(queries)
}

// processCPU is this process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB. It
// is read from /proc rather than from wait4's rusage because Linux
// carries the parent's peak into a child's ru_maxrss when the child is
// spawned with a shared address space, as os/exec does.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM line %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

type runtimeReading struct{ gcCPU, allocBytes float64 }

func readRuntime() runtimeReading {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var r runtimeReading
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = float64(s[1].Value.Uint64())
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
