package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"p2pmalware/internal/filtersvc"
)

// daemon is one running cmd/filterd process.
type daemon struct {
	cmd      *exec.Cmd
	log      *logWatch
	httpBase string
	lineAddr string
	client   *http.Client
	stopped  bool
}

// logWatch collects the daemon's stderr and reports the two listen
// addresses it logs at start-up.
type logWatch struct {
	mu       sync.Mutex
	buf      bytes.Buffer
	httpAddr string
	lineAddr string
	ready    chan struct{}
	once     sync.Once
}

func (w *logWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for _, line := range strings.Split(w.buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "filterd: check API on http://"); ok {
			w.httpAddr = strings.TrimSuffix(rest, "/check")
		}
		if rest, ok := strings.CutPrefix(line, "filterd: line protocol on "); ok {
			w.lineAddr = rest
		}
	}
	if w.httpAddr != "" && w.lineAddr != "" {
		w.once.Do(func() { close(w.ready) })
	}
	return len(p), nil
}

func (w *logWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

const daemonStartTimeout = 20 * time.Second

// startDaemon starts filterd with blocklist preloaded and returns once
// both listeners are up. The HTTP client keeps one connection.
func startDaemon(bin, blocklist string) (*daemon, error) {
	w := &logWatch{ready: make(chan struct{})}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-line-addr", "127.0.0.1:0", "-blocklist", blocklist)
	cmd.Stdout = io.Discard
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start filterd: %w", err)
	}
	d := &daemon{cmd: cmd, log: w}
	select {
	case <-w.ready:
	case <-time.After(daemonStartTimeout):
		d.kill()
		return nil, fmt.Errorf("filterd did not come up in %v: %s", daemonStartTimeout, w.String())
	}
	w.mu.Lock()
	d.httpBase, d.lineAddr = "http://"+w.httpAddr, w.lineAddr
	w.mu.Unlock()
	d.client = &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}
	return d, nil
}

// stop ends the daemon with SIGTERM and waits for it to exit. It
// returns the daemon's peak resident memory in MB, read just before.
func (d *daemon) stop() (float64, error) {
	d.client.CloseIdleConnections()
	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		d.kill()
		return 0, err
	}
	d.stopped = true
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Wait()
		return 0, err
	}
	// filterd installs its SIGTERM handler only after it logs its
	// listeners, so a stop that lands in that window ends it by the
	// signal's default action instead of its drain. Either way it stopped
	// because it was asked to.
	err = d.cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			err = nil
		}
	}
	if err != nil {
		return 0, fmt.Errorf("filterd exit: %w: %s", err, d.log.String())
	}
	return rss, nil
}

// kill ends a daemon that was not stopped cleanly.
func (d *daemon) kill() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// cpuSeconds reads the daemon's user plus system CPU from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, 100 on every Linux architecture Go supports.
const clockTicks = 100

type checkReply struct {
	Verdict string `json:"verdict"`
	Version uint64 `json:"version"`
}

// check sends one GET /check and returns the verdict and its version.
func (d *daemon) check(size int64, downloadable bool) (bool, uint64, error) {
	url := d.httpBase + "/check?size=" + strconv.FormatInt(size, 10)
	if !downloadable {
		url += "&downloadable=0"
	}
	resp, err := d.client.Get(url)
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, 0, fmt.Errorf("check %d: %s: %s", size, resp.Status, body)
	}
	var r checkReply
	if err := json.Unmarshal(body, &r); err != nil {
		return false, 0, fmt.Errorf("check reply %q: %w", body, err)
	}
	switch r.Verdict {
	case "block":
		return true, r.Version, nil
	case "allow":
		return false, r.Version, nil
	}
	return false, 0, fmt.Errorf("check reply verdict %q", r.Verdict)
}

// update sends one POST /update adding or removing sizes, shaped like
// the push p2pstudy -filterd makes, and returns the version the reply
// names.
func (d *daemon) update(sizes []int64, add bool) (uint64, error) {
	op := "remove"
	if add {
		op = "add"
	}
	body, err := json.Marshal(map[string][]int64{op: sizes})
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Post(d.httpBase+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("update: %s: %s", resp.Status, reply)
	}
	var r struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(reply, &r); err != nil {
		return 0, fmt.Errorf("update reply %q: %w", reply, err)
	}
	return r.Version, nil
}

// status reads GET /status.
func (d *daemon) status() (filtersvc.Stats, error) {
	var st filtersvc.Stats
	resp, err := d.client.Get(d.httpBase + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// probe is one check the client makes.
type probe struct {
	size         int64
	downloadable bool
}

// chunkPlan fixes the operations of one serving chunk. The two
// connections run side by side within a chunk; a chunk ends when both
// have finished. The line connection always sends lineChecks checks. The
// HTTP connection sends httpChecks checks in a check chunk, and in an
// update chunk sends updates updates and then checks every reserved size.
type chunkPlan struct {
	lineChecks int
	httpChecks int
	updates    int
}

// ops counts a chunk's operations; reserved is the reserved set's size.
func (p chunkPlan) ops(update bool, reserved int) int {
	if update {
		return p.lineChecks + p.updates + reserved
	}
	return p.lineChecks + p.httpChecks
}

// checks counts the checks among a chunk's operations.
func (p chunkPlan) checks(update bool, reserved int) int {
	if update {
		return p.lineChecks + reserved
	}
	return p.lineChecks + p.httpChecks
}

// chunk is one chunk's inputs: the line stream cut into batches (never a
// reserved size) and the HTTP check stream, empty in an update chunk.
type chunk struct {
	update  bool
	batches [][]probe
	http    []probe
}

// chunkResult is what one chunk measured and how many of its operations
// failed their checks.
type chunkResult struct {
	lineBatchUS []float64
	lineElapsed time.Duration
	httpUS      []float64
	updateMS    []float64
	failed      int
	problems    []string
}

func (r *chunkResult) fail(err error) {
	if len(r.problems) < 3 {
		r.problems = append(r.problems, err.Error())
	}
	r.failed++
}

// lineConn is the generator's line-protocol connection.
type lineConn struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
}

func dialLine(addr string) (*lineConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &lineConn{conn: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// serveChunk drives the daemon from both connections at once: line
// batches on one, HTTP checks or updates on the other. Both loops are
// closed: each request waits for the previous reply. Line verdicts are
// checked after the timed loops; every operation whose check fails
// counts in the result's failed.
func serveChunk(d *daemon, lc *lineConn, ch *chunk, plan chunkPlan, reserved []int64, o *listOracle) (*chunkResult, error) {
	res := &chunkResult{}
	var got [][]bool
	var wg sync.WaitGroup
	var lineErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.lineBatchUS, res.lineElapsed, got, lineErr = lc.run(ch.batches)
	}()
	var httpErr error
	if ch.update {
		httpErr = updateLoop(d, plan.updates, reserved, o, res)
	} else {
		httpErr = checkLoop(d, ch.http, o, res)
	}
	wg.Wait()
	if err := errors.Join(lineErr, httpErr); err != nil {
		return nil, err
	}
	for b, batch := range ch.batches {
		for i, p := range batch {
			want, err := o.blocks(p.size, p.downloadable, o.latest)
			if err != nil {
				return nil, err
			}
			if got[b][i] != want {
				res.fail(fmt.Errorf("line check size %d (downloadable=%v): got block=%v, want %v",
					p.size, p.downloadable, got[b][i], want))
			}
		}
	}
	return res, nil
}

// run sends each batch in one write and reads its replies, recording the
// batch's round trip and each verdict.
func (lc *lineConn) run(batches [][]probe) ([]float64, time.Duration, [][]bool, error) {
	lat := make([]float64, 0, len(batches))
	got := make([][]bool, len(batches))
	start := time.Now()
	for b, batch := range batches {
		lc.req = lc.req[:0]
		for _, p := range batch {
			lc.req = filtersvc.AppendCheckLine(lc.req, p.size, p.downloadable)
			lc.req = append(lc.req, '\n')
		}
		got[b] = make([]bool, len(batch))
		t := time.Now()
		if _, err := lc.conn.Write(lc.req); err != nil {
			return nil, 0, nil, err
		}
		for i := range batch {
			line, err := lc.br.ReadSlice('\n')
			if err != nil {
				return nil, 0, nil, fmt.Errorf("line reply: %w", err)
			}
			switch string(line) {
			case "block\n":
				got[b][i] = true
			case "allow\n":
			default:
				return nil, 0, nil, fmt.Errorf("line reply %q", line)
			}
		}
		lat = append(lat, float64(time.Since(t))/float64(time.Microsecond))
	}
	return lat, time.Since(start), got, nil
}

// checkLoop sends the HTTP checks one at a time.
func checkLoop(d *daemon, stream []probe, o *listOracle, res *chunkResult) error {
	res.httpUS = make([]float64, 0, len(stream))
	for _, p := range stream {
		t := time.Now()
		block, v, err := d.check(p.size, p.downloadable)
		if err != nil {
			return err
		}
		res.httpUS = append(res.httpUS, float64(time.Since(t))/float64(time.Microsecond))
		if err := o.checkVerdict(p.size, p.downloadable, block, v); err != nil {
			res.fail(err)
		}
	}
	return nil
}

// updateLoop adds and removes the reserved set n times in turn, then
// checks every reserved size against the list the updates left.
func updateLoop(d *daemon, n int, reserved []int64, o *listOracle, res *chunkResult) error {
	res.updateMS = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		add := !o.present[o.latest]
		t := time.Now()
		v, err := d.update(reserved, add)
		if err != nil {
			return err
		}
		res.updateMS = append(res.updateMS, ms(time.Since(t)))
		if err := o.update(add, v); err != nil {
			res.fail(err)
		}
	}
	for _, s := range reserved {
		block, v, err := d.check(s, true)
		if err != nil {
			return err
		}
		if err := o.checkVerdict(s, true, block, v); err != nil {
			res.fail(err)
		}
	}
	return nil
}
