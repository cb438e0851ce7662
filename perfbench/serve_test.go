package main

import (
	"math/rand/v2"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/filtersvc"
	"p2pmalware/internal/obs"
)

// startService serves an in-process filtersvc the way cmd/filterd does,
// returning a daemon handle without a process behind it.
func startService(t *testing.T, list []int64) (*filtersvc.Service, *daemon, uint64) {
	t.Helper()
	svc := filtersvc.New(obs.NewRegistry())
	v := svc.Replace(list, 0)
	hs := httptest.NewServer(svc.Handler())
	t.Cleanup(hs.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ls := filtersvc.ServeLine(ln, svc)
	t.Cleanup(func() { ls.Close() })
	return svc, &daemon{httpBase: hs.URL, lineAddr: ls.Addr(), client: hs.Client()}, v
}

// serveTestStream is a check stream over three queries of a small
// trace, one response of them not downloadable.
func serveTestStream() *checkStream {
	tr := dataset.NewTrace()
	for i, size := range []int64{100, 150, 200, 250, 300, 200, 100} {
		tr.Add(dataset.ResponseRecord{
			Time:         studyEpoch.Add(time.Duration(i/3) * queryInterval),
			Network:      dataset.LimeWire,
			Size:         size,
			Downloadable: i != 4,
		})
	}
	return newCheckStream(tr, rand.New(rand.NewPCG(1, 2)))
}

func TestCheckStreamBatchesByQuery(t *testing.T) {
	cs := serveTestStream()
	if len(cs.queries) != 3 || len(cs.flat) != 7 {
		t.Fatalf("%d queries, %d responses; want 3, 7", len(cs.queries), len(cs.flat))
	}
	total := 0
	for _, b := range cs.lineBatches(10) {
		total += len(b)
	}
	if total != 10 {
		t.Errorf("line batches hold %d checks, want 10", total)
	}
	if n := len(cs.httpChecks(9)); n != 9 {
		t.Errorf("%d HTTP checks, want 9", n)
	}
}

func TestServeChunkAgainstService(t *testing.T) {
	list := []int64{100, 200, 301}
	reserved := []int64{reservedBase, reservedBase + 7}
	svc, d, v := startService(t, list)
	lc, err := dialLine(d.lineAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.conn.Close()
	plan := chunkPlan{lineChecks: 40, httpChecks: 30, updates: 5}
	o := newListOracle(list, reserved, v)
	cs := serveTestStream()
	var checks int64
	for c := 0; c < 4; c++ {
		update := c%2 == 1
		res, err := serveChunk(d, lc, makeChunk(cs, plan, update), plan, reserved, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.problems) != 0 || res.failed != 0 {
			t.Fatalf("chunk %d: %d failed: %v", c, res.failed, res.problems)
		}
		wantHTTP, wantUpdates := plan.httpChecks, 0
		if update {
			wantHTTP, wantUpdates = 0, plan.updates
		}
		if len(res.httpUS) != wantHTTP || len(res.updateMS) != wantUpdates {
			t.Fatalf("chunk %d: %d checks, %d updates timed", c, len(res.httpUS), len(res.updateMS))
		}
		checks += int64(plan.checks(update, len(reserved)))
	}
	if o.latest != v+uint64(2*plan.updates) {
		t.Errorf("oracle at version %d after %d updates from %d", o.latest, 2*plan.updates, v)
	}
	if got := svc.Stats().Checks; got != checks {
		t.Errorf("service counted %d checks, sent %d", got, checks)
	}
}

func TestServeChunkCountsWrongVerdictsAsFailed(t *testing.T) {
	reserved := []int64{reservedBase}
	_, d, v := startService(t, []int64{100, 200})
	lc, err := dialLine(d.lineAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.conn.Close()
	plan := chunkPlan{lineChecks: 40, httpChecks: 30, updates: 5}
	// The benchmark's copy lacks 200, so every verdict on a downloadable
	// 200 disagrees, and each counts as one failed operation.
	o := newListOracle([]int64{100}, reserved, v)
	ch := makeChunk(serveTestStream(), plan, false)
	wrong := 0
	for _, p := range append(flatten(ch.batches), ch.http...) {
		if p.size == 200 && p.downloadable {
			wrong++
		}
	}
	res, err := serveChunk(d, lc, ch, plan, reserved, o)
	if err != nil {
		t.Fatal(err)
	}
	if wrong == 0 || res.failed != wrong {
		t.Errorf("%d operations failed, want %d", res.failed, wrong)
	}
	if len(res.problems) == 0 {
		t.Error("wrong verdicts were not reported")
	}
}

func TestServeChunkCountsStaleVersionsAsFailed(t *testing.T) {
	list := []int64{100, 200}
	reserved := []int64{reservedBase, reservedBase + 1}
	_, d, v := startService(t, list)
	lc, err := dialLine(d.lineAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.conn.Close()
	plan := chunkPlan{lineChecks: 40, httpChecks: 30, updates: 5}
	// A copy one version behind the daemon: every HTTP verdict names a
	// version the copy has not seen, and the first update skips one.
	o := newListOracle(list, reserved, v-1)
	res, err := serveChunk(d, lc, makeChunk(serveTestStream(), plan, false), plan, reserved, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != plan.httpChecks {
		t.Errorf("%d operations failed, want every HTTP check (%d)", res.failed, plan.httpChecks)
	}
	res, err = serveChunk(d, lc, makeChunk(serveTestStream(), plan, true), plan, reserved, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 {
		t.Errorf("%d operations failed, want the one update that skipped a version", res.failed)
	}
}

func flatten(batches [][]probe) []probe {
	var out []probe
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}
