package main

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"p2pmalware/internal/dataset"
	"p2pmalware/internal/malware"
)

// The oracles below recompute, apart from the program, what a correct
// study trace and a correct filterd verdict must look like. They use the
// malware catalogs (the ground truth every specimen is built from),
// crypto/md5 and plain counting; never the scanner, the analysis package
// or filtersvc.

// specimen is one catalog variant as the oracle computed it.
type specimen struct {
	family string
	size   int64
	md5    string
	bytes  []byte
}

// catalogOracle knows every specimen of every family in play.
type catalogOracle struct {
	byFamily map[string][]specimen
	byHash   map[string]string // hex MD5 -> family
}

func newCatalogOracle(cats ...*malware.Catalog) (*catalogOracle, error) {
	o := &catalogOracle{byFamily: map[string][]specimen{}, byHash: map[string]string{}}
	for _, c := range cats {
		for _, f := range c.Families {
			for v := 0; v < f.NumVariants(); v++ {
				b, err := f.Specimen(v)
				if err != nil {
					return nil, fmt.Errorf("oracle: %s variant %d: %w", f.Name, v, err)
				}
				sum := md5.Sum(b)
				sp := specimen{family: f.Name, size: int64(len(b)), md5: hex.EncodeToString(sum[:]), bytes: b}
				o.byFamily[f.Name] = append(o.byFamily[f.Name], sp)
				o.byHash[sp.md5] = f.Name
			}
		}
	}
	return o, nil
}

// specimenFor returns the family's specimen with the given size.
func (o *catalogOracle) specimenFor(family string, size int64) (specimen, bool) {
	for _, sp := range o.byFamily[family] {
		if sp.size == size {
			return sp, true
		}
	}
	return specimen{}, false
}

// checkRecord reports what is wrong with one record: a successful
// download whose true size differs from the advertised size, a malicious
// label whose (size, hash) is not one of that family's specimens, or a
// clean download whose bytes hash to some specimen.
func (o *catalogOracle) checkRecord(r *dataset.ResponseRecord) error {
	if r.Downloaded && r.BodySize != r.Size {
		return fmt.Errorf("%s %q: body_size %d != advertised %d", r.Network, r.Filename, r.BodySize, r.Size)
	}
	if r.Malicious() {
		sp, ok := o.specimenFor(r.Malware, r.BodySize)
		if !ok {
			return fmt.Errorf("%s %q: family %s has no %d-byte specimen", r.Network, r.Filename, r.Malware, r.BodySize)
		}
		if sp.md5 != r.BodyHash {
			return fmt.Errorf("%s %q: body_hash %s is not %s's %d-byte specimen %s",
				r.Network, r.Filename, r.BodyHash, r.Malware, r.BodySize, sp.md5)
		}
		return nil
	}
	if r.Downloaded {
		if fam, ok := o.byHash[r.BodyHash]; ok {
			return fmt.Errorf("%s %q: clean download hashes to a %s specimen", r.Network, r.Filename, fam)
		}
	}
	return nil
}

// netCounts are one network's counts, made by the benchmark itself.
type netCounts struct {
	responses, downloadable, labelled, malicious int
	families                                     map[string]int
}

func countTrace(tr *dataset.Trace) map[dataset.Network]*netCounts {
	out := map[dataset.Network]*netCounts{}
	for i := range tr.Records {
		r := &tr.Records[i]
		c := out[r.Network]
		if c == nil {
			c = &netCounts{families: map[string]int{}}
			out[r.Network] = c
		}
		c.responses++
		if !r.Downloadable {
			continue
		}
		c.downloadable++
		if r.Downloaded {
			c.labelled++
		}
		if r.Malicious() {
			c.malicious++
			c.families[r.Malware]++
		}
	}
	return out
}

// share is malicious over labelled (downloaded and scanned) downloadable
// responses, the paper's T2 ratio.
func (c *netCounts) share() float64 {
	if c == nil || c.labelled == 0 {
		return 0
	}
	return float64(c.malicious) / float64(c.labelled)
}

// topShare is the combined share of the k most frequent families among
// malicious responses.
func (c *netCounts) topShare(k int) float64 {
	if c == nil || c.malicious == 0 {
		return 0
	}
	ns := make([]int, 0, len(c.families))
	for _, n := range c.families {
		ns = append(ns, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ns)))
	top := 0
	for i := 0; i < k && i < len(ns); i++ {
		top += ns[i]
	}
	return float64(top) / float64(c.malicious)
}

// Headline bands every study trace must land in.
const (
	lwShareMin, lwShareMax = 0.60, 0.75
	ftShareMin, ftShareMax = 0.01, 0.06
	lwTop3Min              = 0.95
	filterK                = 10
	filterDetectMin        = 0.99
)

// trainSizes is the benchmark's own size filter: the k most common
// advertised sizes among the network's malicious responses in recs, ties
// broken by the smaller size.
func trainSizes(recs []dataset.ResponseRecord, nw dataset.Network, k int) []int64 {
	counts := map[int64]int{}
	for i := range recs {
		if recs[i].Network == nw && recs[i].Malicious() {
			counts[recs[i].Size]++
		}
	}
	sizes := make([]int64, 0, len(counts))
	for s := range counts {
		sizes = append(sizes, s)
	}
	sort.Slice(sizes, func(i, j int) bool {
		if counts[sizes[i]] != counts[sizes[j]] {
			return counts[sizes[i]] > counts[sizes[j]]
		}
		return sizes[i] < sizes[j]
	})
	if k > 0 && len(sizes) > k {
		sizes = sizes[:k]
	}
	return sizes
}

// filterScore applies an exact-size list to the network's labelled
// downloadable responses: detected malicious, total malicious, and
// blocked clean responses.
func filterScore(recs []dataset.ResponseRecord, nw dataset.Network, list []int64) (detected, malicious, falsePos int) {
	blocked := map[int64]bool{}
	for _, s := range list {
		blocked[s] = true
	}
	for i := range recs {
		r := &recs[i]
		if r.Network != nw || !r.Downloadable || !r.Downloaded {
			continue
		}
		if r.Malicious() {
			malicious++
			if blocked[r.Size] {
				detected++
			}
		} else if blocked[r.Size] {
			falsePos++
		}
	}
	return detected, malicious, falsePos
}

// querySeq recovers a record's query sequence number: query i of a
// network is issued at epoch + i*interval on the virtual clock.
func querySeq(r *dataset.ResponseRecord, epoch time.Time, interval time.Duration) int64 {
	return int64(r.Time.Sub(epoch) / interval)
}

// checkStudy runs every study check on one trace of queriesPerNet
// queries per network. It returns the problems found (none for a correct
// trace) and how many queries failed: a query fails when one of its
// records fails the catalog oracle, and every query fails when a check
// over the whole trace does.
func checkStudy(tr *dataset.Trace, o *catalogOracle, epoch time.Time, interval time.Duration, queriesPerNet int) ([]string, int) {
	var probs []string
	bad := 0
	badQueries := map[queryKey]bool{}
	for i := range tr.Records {
		r := &tr.Records[i]
		if err := o.checkRecord(r); err != nil {
			if bad < 5 {
				probs = append(probs, err.Error())
			}
			bad++
			badQueries[queryKey{r.Network, querySeq(r, epoch, interval)}] = true
		}
	}
	if bad > 5 {
		probs = append(probs, fmt.Sprintf("... %d records fail the catalog oracle", bad))
	}
	recordProbs := len(probs)
	for _, nw := range []dataset.Network{dataset.LimeWire, dataset.OpenFT} {
		if n := tr.QueriesSent[nw]; n != queriesPerNet {
			probs = append(probs, fmt.Sprintf("%s sent %d queries, want %d", nw, n, queriesPerNet))
		}
	}
	counts := countTrace(tr)
	lw, ft := counts[dataset.LimeWire], counts[dataset.OpenFT]
	if s := lw.share(); s < lwShareMin || s > lwShareMax {
		probs = append(probs, fmt.Sprintf("limewire malicious share %.4f outside [%.2f, %.2f]", s, lwShareMin, lwShareMax))
	}
	if s := ft.share(); s < ftShareMin || s > ftShareMax {
		probs = append(probs, fmt.Sprintf("openft malicious share %.4f outside [%.2f, %.2f]", s, ftShareMin, ftShareMax))
	}
	if s := lw.topShare(3); s < lwTop3Min {
		probs = append(probs, fmt.Sprintf("limewire top-3 families hold %.4f of malicious responses, want >= %.2f", s, lwTop3Min))
	}
	var train, eval []dataset.ResponseRecord
	for i := range tr.Records {
		if querySeq(&tr.Records[i], epoch, interval) < int64(queriesPerNet/4) {
			train = append(train, tr.Records[i])
		} else {
			eval = append(eval, tr.Records[i])
		}
	}
	list := trainSizes(train, dataset.LimeWire, filterK)
	det, mal, fp := filterScore(eval, dataset.LimeWire, list)
	if mal == 0 || float64(det)/float64(mal) <= filterDetectMin || fp != 0 {
		probs = append(probs, fmt.Sprintf("k=%d size list blocks %d/%d limewire malicious responses with %d false positives, want > %.2f and 0",
			filterK, det, mal, fp, filterDetectMin))
	}
	if len(probs) > recordProbs {
		return probs, 2 * queriesPerNet
	}
	return probs, len(badQueries)
}

// queryKey names one query of one network.
type queryKey struct {
	network dataset.Network
	seq     int64
}

// diffRecords compares two same-seed, same-config traces query by query:
// a query diverges when its records, serialized, differ in any field or
// in order. It returns the number of divergent queries and the first one
// in (network, seq) order.
func diffRecords(a, b *dataset.Trace, epoch time.Time, interval time.Duration) (int, string, error) {
	ga, err := groupByQuery(a, epoch, interval)
	if err != nil {
		return 0, "", err
	}
	gb, err := groupByQuery(b, epoch, interval)
	if err != nil {
		return 0, "", err
	}
	keys := map[queryKey]bool{}
	for k := range ga {
		keys[k] = true
	}
	for k := range gb {
		keys[k] = true
	}
	var div []queryKey
	for k := range keys {
		if !bytes.Equal(ga[k], gb[k]) {
			div = append(div, k)
		}
	}
	if len(div) == 0 {
		return 0, "", nil
	}
	sort.Slice(div, func(i, j int) bool {
		if div[i].network != div[j].network {
			return div[i].network < div[j].network
		}
		return div[i].seq < div[j].seq
	})
	return len(div), fmt.Sprintf("%s query %d", div[0].network, div[0].seq), nil
}

func groupByQuery(tr *dataset.Trace, epoch time.Time, interval time.Duration) (map[queryKey][]byte, error) {
	out := map[queryKey][]byte{}
	for i := range tr.Records {
		r := &tr.Records[i]
		line, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("encode record: %w", err)
		}
		k := queryKey{r.Network, querySeq(r, epoch, interval)}
		out[k] = append(append(out[k], line...), '\n')
	}
	return out, nil
}

// listOracle is the benchmark's own copy of the daemon's block list: a
// fixed base list, plus a reserved set that updates add and remove as a
// whole, tracked per snapshot version.
type listOracle struct {
	base     []int64
	reserved []int64
	present  map[uint64]bool // version -> reserved set in the list
	latest   uint64
	memo     map[int64]bool // base-list membership by size
}

func newListOracle(base, reserved []int64, version uint64) *listOracle {
	return &listOracle{
		base: base, reserved: reserved,
		present: map[uint64]bool{version: false}, latest: version,
		memo: map[int64]bool{},
	}
}

// blocks is the linear-scan verdict for (size, downloadable) against the
// list as it stood at version.
func (o *listOracle) blocks(size int64, downloadable bool, version uint64) (bool, error) {
	present, ok := o.present[version]
	if !ok {
		return false, fmt.Errorf("no snapshot version %d (latest %d)", version, o.latest)
	}
	if !downloadable {
		return false, nil
	}
	if present {
		for _, s := range o.reserved {
			if s == size {
				return true, nil
			}
		}
	}
	in, ok := o.memo[size]
	if !ok {
		for _, s := range o.base {
			if s == size {
				in = true
				break
			}
		}
		o.memo[size] = in
	}
	return in, nil
}

// checkVerdict validates one versioned verdict: the daemon must answer at
// the version the client last saw published (an older one is stale), and
// the verdict must match the linear scan at that version.
func (o *listOracle) checkVerdict(size int64, downloadable, block bool, version uint64) error {
	if version != o.latest {
		return fmt.Errorf("size %d answered at version %d, want %d", size, version, o.latest)
	}
	want, err := o.blocks(size, downloadable, version)
	if err != nil {
		return err
	}
	if block != want {
		return fmt.Errorf("size %d (downloadable=%v) at version %d: got block=%v, want %v", size, downloadable, version, block, want)
	}
	return nil
}

// update records an update that added (or removed) the reserved set and
// was answered with version. The version must be the next one after the
// latest; it is recorded either way, so later verdicts can be placed.
func (o *listOracle) update(add bool, version uint64) error {
	next := o.latest + 1
	o.present[version] = add
	o.latest = version
	if version != next {
		return fmt.Errorf("update answered version %d, want %d", version, next)
	}
	return nil
}
