package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/filtersvc"
	"p2pmalware/internal/malware"
	"p2pmalware/internal/obs"
	"p2pmalware/internal/scanner"
)

// Layer replays: each times one public call of one layer over this
// round's inputs, from outside the program, so the figures do not depend
// on spans inside it.

// scanReplay runs Engine.ScanSum over the bodies the study downloaded:
// each malicious record's catalog specimen, and for each clean record
// seeded bytes of its recorded size. It returns the time taken and the
// bytes scanned.
func scanReplay(tr *dataset.Trace, o *catalogOracle, seed uint64) (time.Duration, int64, error) {
	var maxClean int64
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Downloaded && !r.Malicious() && r.BodySize > maxClean {
			maxClean = r.BodySize
		}
	}
	clean := make([]byte, maxClean)
	rng := rand.New(rand.NewPCG(seed, 0x5ca9))
	for i := 0; i+8 <= len(clean); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			clean[i+j] = byte(v >> (8 * j))
		}
	}
	bodies := make([][]byte, 0, len(tr.Records))
	var total int64
	for i := range tr.Records {
		r := &tr.Records[i]
		if !r.Downloaded {
			continue
		}
		var body []byte
		if r.Malicious() {
			sp, ok := o.specimenFor(r.Malware, r.BodySize)
			if !ok {
				return 0, 0, fmt.Errorf("scan replay: no %d-byte %s specimen", r.BodySize, r.Malware)
			}
			body = sp.bytes
		} else {
			body = clean[:r.BodySize]
		}
		bodies = append(bodies, body)
		total += int64(len(body))
	}
	eng, err := scanner.FromCatalogs(malware.LimeWireCatalog(), malware.OpenFTCatalog())
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for _, b := range bodies {
		eng.ScanSum(b)
	}
	return time.Since(start), total, nil
}

// checkReplay times Service.Check over the line stream against the
// served list, from one goroutine and then from GOMAXPROCS goroutines at
// once. Both figures are nanoseconds per check per goroutine, so equal
// figures mean the parallel case scaled perfectly.
func checkReplay(list []int64, stream []probe) (serialNS, parNS float64) {
	svc := filtersvc.New(obs.NewRegistry())
	svc.Replace(list, 0)
	start := time.Now()
	for _, p := range stream {
		svc.Check(p.size, p.downloadable)
	}
	serialNS = float64(time.Since(start).Nanoseconds()) / float64(len(stream))

	n := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	start = time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range stream {
				svc.Check(p.size, p.downloadable)
			}
		}()
	}
	wg.Wait()
	parNS = float64(time.Since(start).Nanoseconds()) / float64(len(stream))
	return serialNS, parNS
}

// parseReplay times ParseCheckLine over the line stream's request lines.
func parseReplay(stream []probe) float64 {
	lines := make([][]byte, len(stream))
	for i, p := range stream {
		lines[i] = filtersvc.AppendCheckLine(nil, p.size, p.downloadable)
	}
	start := time.Now()
	for _, l := range lines {
		filtersvc.ParseCheckLine(l)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(lines))
}

// replaceReplay times Service.Replace with the served list, the median of
// replaceRuns installs on one service.
func replaceReplay(list []int64) float64 {
	const replaceRuns = 9
	svc := filtersvc.New(obs.NewRegistry())
	var samples []float64
	for i := 0; i < replaceRuns; i++ {
		start := time.Now()
		svc.Replace(list, 0)
		samples = append(samples, ms(time.Since(start)))
	}
	return median(samples)
}
