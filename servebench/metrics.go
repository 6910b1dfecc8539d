package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// value is one computed metric with the number of samples behind it
// (0 for counts and ratios).
type value struct {
	name    string
	v       float64
	unit    string
	samples int
}

// samples collects the latencies of records matching keep, in ms.
// Failed requests are charged failedLatency.
func samples(recs []opRec, keep func(opRec) bool) []float64 {
	var out []float64
	for _, rec := range recs {
		if !keep(rec) {
			continue
		}
		lat := time.Duration(rec.lat)
		if rec.code != 200 {
			lat = failedLatency
		}
		out = append(out, float64(lat)/float64(time.Millisecond))
	}
	return out
}

// latPctl is the q-quantile of the latencies of recs matching keep,
// all samples pooled, with the number of samples.
func latPctl(recs []opRec, keep func(opRec) bool, q float64) (v float64, n int) {
	all := samples(recs, keep)
	return pctl(all, q), len(all)
}

func (r *run) loopRecs() []opRec {
	var out []opRec
	for _, rs := range r.recs {
		out = append(out, rs...)
	}
	return out
}

// appendRecs are the appends a workload reports: the timed loop's on
// live-ingest, the probe's elsewhere.
func (r *run) appendRecs() []opRec {
	if r.wl.probe != "" {
		return r.probe
	}
	var recs []opRec
	for _, rec := range r.loopRecs() {
		if rec.kind == kindAppend {
			recs = append(recs, rec)
		}
	}
	return recs
}

// loopTime is the timed loop's length, the probe's gaps excluded.
func (r *run) loopTime() time.Duration {
	var t time.Duration
	for _, d := range r.segTime {
		t += d
	}
	return t
}

func isQuery(rec opRec) bool  { return rec.kind == kindQuery }
func isAppend(rec opRec) bool { return rec.kind == kindAppend }

func (r *run) endToEnd() []value {
	loop := r.loopRecs()
	arecs := r.appendRecs()
	okRecords, okQueries := 0, 0
	var appendBusy time.Duration
	for _, rec := range arecs {
		if rec.code == 200 {
			okRecords += batchRecords
			appendBusy += time.Duration(rec.lat)
		}
	}
	for _, rec := range loop {
		if rec.kind == kindQuery && rec.code == 200 {
			okQueries++
		}
	}
	lat := func(name string, recs []opRec, keep func(opRec) bool, q float64) value {
		v, n := latPctl(recs, keep, q)
		return value{name, v, "ms", n}
	}
	_, setup, _ := quartiles(r.setupS)
	return []value{
		{"setup_s", setup, "s", len(r.setupS)},
		lat("query_p50_ms", loop, isQuery, 0.50),
		lat("query_p95_ms", loop, isQuery, 0.95),
		{"query_qps", float64(okQueries) / r.loopTime().Seconds(), "req/s", okQueries},
		lat("append_p50_ms", arecs, isAppend, 0.50),
		lat("append_p95_ms", arecs, isAppend, 0.95),
		// Service throughput: acked records over the time the appends
		// spent in the server, so live-ingest's pacing does not set it.
		{"append_records_per_s", float64(okRecords) / appendBusy.Seconds(), "records/s", len(arecs)},
		{"live_heap_mb", r.heapMB, "MiB", 0},
	}
}

func ratio(num, den int64, scale float64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) * scale / float64(den)
}

// perLayer computes the layer metrics: outcome-split latencies and
// counter deltas of the untraced run, and span timings of the replay.
func (r *run) perLayer() []value {
	loop := r.loopRecs()
	all := append(append(append([]opRec(nil), r.warm...), loop...), r.probe...)
	byOutcome := func(o uint8) []float64 {
		return samples(all, func(rec opRec) bool { return rec.kind == kindQuery && rec.outcome == o })
	}
	hit, miss, patched := byOutcome(outHit), byOutcome(outMiss), byOutcome(outPatched)
	var sizes []float64
	for _, rec := range loop {
		if rec.kind == kindQuery {
			sizes = append(sizes, float64(rec.size)/1024)
		}
	}
	attempted, failed := r.attempted()
	d := r.loopDelta
	appends := d["serve.appends"]
	tr := r.rp.tr
	spanStat := func(name string, q float64, scale float64) value {
		ds := tr.durations(name)
		return value{"", pctl(ds, q) * scale, "", len(ds)}
	}
	named := func(name, unit string, v value) value { v.name, v.unit = name, unit; return v }
	unattributed, overheadQ, overheadA, layerPct := r.attribution()
	p99, n99 := latPctl(loop, isQuery, 0.99)
	vals := []value{
		{"query_p99_ms", p99, "ms", n99},
		{"serve.hit_ms_p50", pctl(hit, 0.5), "ms", len(hit)},
		{"serve.miss_ms_p50", pctl(miss, 0.5), "ms", len(miss)},
		{"serve.patched_ms_p50", pctl(patched, 0.5), "ms", len(patched)},
		{"serve.unattributed_ms_p50", pctl(unattributed, 0.5), "ms", len(unattributed)},
		{"serve.response_kb_p50", pctl(sizes, 0.5), "KiB", len(sizes)},
		{"error_pct", ratio(int64(failed), int64(attempted), 100), "%", attempted},
		named("resil.admit_wait_ms_p99", "ms", spanStat("resil.admit", 0.99, 1)),
		{"resil.shed", float64(d["serve.shed_requests"]), "count", 0},
		named("storage.base_stamp_us_p50", "us", spanStat("storage.base_stamp", 0.5, 1000)),
		{"storage.load_ms", sum(tr.durations("storage.load")), "ms", len(tr.durations("storage.load"))},
		{"storage.chunks_decoded", float64(r.setupDelta["storage.scan.chunks_decoded"]), "count", 0},
		{"storage.rows_read", float64(r.setupDelta["storage.rows_read"]), "count", 0},
		{"storage.bytes_read", float64(r.setupDelta["storage.bytes_read"]), "bytes", 0},
		named("wal.append_ms_p50", "ms", spanStat("wal.append", 0.5, 1)),
		{"wal.syncs_per_append", ratio(d["storage.wal.syncs"], d["storage.wal.appends"], 1), "count", 0},
		{"wal.replay_records", float64(r.restartRepl), "records", 0},
		{"wal.replay_ms", r.walReplayMS, "ms", 0},
		named("qcache.lookup_us_p50", "us", spanStat("qcache.lookup", 0.5, 1000)),
		{"qcache.hit_pct", ratio(d["qcache.hits"], d["qcache.hits"]+d["qcache.misses"]+d["qcache.shared"], 100), "%", 0},
		{"qcache.evictions", float64(d["qcache.evictions"]), "count", 0},
		{"qcache.invalidated_per_append", ratio(d["serve.cache_invalidated"], appends, 1), "count", 0},
		{"qcache.patch_use_pct", ratio(r.patchesUsed, r.patchesMade, 100), "%", int(r.patchesMade)},
		named("core.og.azoom_ms_p50", "ms", spanStat("core.og.azoom", 0.5, 1)),
		named("core.og.wzoom_ms_p50", "ms", spanStat("core.og.wzoom", 0.5, 1)),
		named("core.ve.azoom_ms_p50", "ms", spanStat("core.ve.azoom", 0.5, 1)),
		named("core.ve.wzoom_ms_p50", "ms", spanStat("core.ve.wzoom", 0.5, 1)),
		{"core.azoom_allocs", float64(r.allocsAZ), "allocs", 0},
		{"core.wzoom_allocs", float64(r.allocsWZ), "allocs", 0},
		named("core.convert_ms_p50", "ms", spanStat("core.convert", 0.5, 1)),
		named("core.rebuild_ms_p50", "ms", spanStat("core.rebuild", 0.5, 1)),
		{"dataflow.shuffled_records_per_query", ratio(r.rp.shuffled, r.rp.computations, 1), "records", int(r.rp.computations)},
		{"dataflow.tasks_per_query", ratio(r.rp.tasks, r.rp.computations, 1), "count", int(r.rp.computations)},
		named("incr.apply_ms_p50", "ms", spanStat("incr.apply", 0.5, 1)),
		{"incr.groups_patched_per_append", ratio(d["incr.groups_patched"], appends, 1), "count", 0},
		{"incr.fallback_pct", ratio(d["incr.fallback_full"], d["incr.applies"], 100), "%", 0},
		{"go.mallocs_per_op", ratio(int64(r.mallocs), int64(len(loop)+len(r.probe)), 1), "allocs", len(loop) + len(r.probe)},
		{"go.gc_cycles", float64(r.gcs), "count", 0},
		{"trace.overhead_query_p50_ms", overheadQ, "ms", 0},
		{"trace.overhead_append_p50_ms", overheadA, "ms", 0},
	}
	for _, layer := range traceLayers {
		vals = append(vals, value{"self." + layer + "_pct", layerPct[layer], "%", 0})
	}
	return vals
}

// traceLayers are the layers spans are attributed to, by span-name
// prefix.
var traceLayers = []string{"serve", "resil", "storage", "wal", "qcache", "core", "incr"}

// layerTime is true for the layers whose spans are subtracted from a
// request's untraced latency to leave serve's own unattributed time.
var layerTime = map[string]bool{"storage": true, "wal": true, "qcache": true, "core": true, "incr": true}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// attribution relates the replay to the untraced run: per replayed
// query, untraced latency minus replayed layer self time; the traced
// minus untraced p50 for queries and appends; and each layer's share
// of replayed request time.
func (r *run) attribution() (unattributed []float64, overheadQ, overheadA float64, layerPct map[string]float64) {
	tr := r.rp.tr
	self := tr.selfTimes()
	layerNS := make(map[int32]int64) // per request
	total := map[string]int64{}
	var rootNS int64
	for i, s := range tr.spans {
		layer := layerOf(s.name)
		total[layer] += self[i]
		if s.parent < 0 {
			rootNS += s.end - s.start
		}
		if layerTime[layer] {
			layerNS[s.req] += self[i]
		}
	}
	var tq, uq, ta, ua []float64
	for _, op := range r.replayed {
		root := tr.spans[op.root]
		traced := float64(root.end-root.start) / float64(time.Millisecond)
		untraced := float64(op.rec.lat) / float64(time.Millisecond)
		if op.rec.kind == kindQuery {
			tq, uq = append(tq, traced), append(uq, untraced)
			unattributed = append(unattributed, untraced-float64(layerNS[root.req])/float64(time.Millisecond))
		} else {
			ta, ua = append(ta, traced), append(ua, untraced)
		}
	}
	layerPct = map[string]float64{}
	for _, layer := range traceLayers {
		layerPct[layer] = ratio(total[layer], rootNS, 100)
	}
	return unattributed, pctl(tq, 0.5) - pctl(uq, 0.5), pctl(ta, 0.5) - pctl(ua, 0.5), layerPct
}

// attempted counts the requests the run timed (loop and probe) and how
// many of them failed: non-200 answers, sheds included.
func (r *run) attempted() (attempted, failed int) {
	for _, rec := range append(r.loopRecs(), r.probe...) {
		attempted++
		if rec.code != 200 {
			failed++
		}
	}
	return attempted, failed
}

// result is the run's outcome with the metrics vals.
func (r *run) result(vals []value) result {
	attempted, failed := r.attempted()
	res := result{Correct: r.failures == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, v := range vals {
		res.Metrics[v.name] = metric{Value: v.v, Unit: v.unit}
	}
	return res
}

// report is the readable summary printed before the result line.
func (r *run) report() []string {
	lines := []string{fmt.Sprintf("workload %s seed %d: %d s timed, dataset %s %d vertex / %d edge states, %.1f MiB on disk",
		r.wl.name, r.opts.seed, r.opts.seconds, r.ds.name, r.ds.vertices, r.ds.edges, float64(r.ds.savedBytes)/(1<<20))}
	format := func(v value) string {
		s := fmt.Sprintf("  %-36s %14.4f %-10s", v.name, v.v, v.unit)
		if v.samples > 0 {
			s += fmt.Sprintf(" n=%d", v.samples)
		}
		return s
	}
	lines = append(lines, "end-to-end:")
	for _, v := range r.endToEnd() {
		lines = append(lines, format(v))
	}
	// Printed with the end-to-end metrics, bounded with neither: the
	// tail is too noisy across runs, and the error rate is 0.
	attempted, failed := r.attempted()
	p99, n99 := latPctl(r.loopRecs(), isQuery, 0.99)
	lines = append(lines, format(value{"query_p99_ms", p99, "ms", n99}),
		format(value{"error_pct", ratio(int64(failed), int64(attempted), 100), "%", attempted}))
	if r.opts.trace {
		lines = append(lines, fmt.Sprintf("per-layer (traced replay of %d operations):", len(r.replayed)))
		for _, v := range r.perLayer() {
			lines = append(lines, format(v))
		}
		lines = append(lines, "span self time (ms, total over the replay):")
		self := r.rp.tr.selfTimes()
		byName := map[string]int64{}
		for i, s := range r.rp.tr.spans {
			byName[s.name] += self[i]
		}
		names := make([]string, 0, len(byName))
		for n := range byName {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			lines = append(lines, fmt.Sprintf("  %-36s %14.3f", n, float64(byName[n])/float64(time.Millisecond)))
		}
	}
	var resultBytes int
	for _, d := range r.lastBody {
		resultBytes += d.n
	}
	lines = append(lines, fmt.Sprintf("results: %d distinct bodies, %.1f MiB in total, against a %d MiB cache; %d entries, %.1f MiB resident with live_heap_mb",
		len(r.lastBody), float64(resultBytes)/(1<<20), r.cfg.CacheBytes>>20, r.cacheEntries, r.cacheMB))
	if r.failures == 0 {
		lines = append(lines, fmt.Sprintf("correctness: ok (%d distinct bodies re-checked after restart, WAL records acked %v)", len(r.lastBody), r.acked))
	} else {
		lines = append(lines, fmt.Sprintf("correctness: FAILED (%d problems): %s", r.failures, strings.Join(r.failMsgs, "; ")))
	}
	return lines
}

// provenance describes where and how a result was measured, so results
// from different machines or settings are never compared silently.
type provenance struct {
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Commit     string            `json:"commit"`
	SourceHash string            `json:"source_sha256"`
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Scale      float64           `json:"scale"`
	Seconds    int               `json:"seconds"`
	Clients    string            `json:"clients"`
	Server     map[string]string `json:"server"`
	Dataset    map[string]int64  `json:"dataset"`
}

func (r *run) provenance() provenance {
	c := r.cfg
	var graphs []string
	for _, g := range r.wl.graphs {
		graphs = append(graphs, g.Name+"@"+g.Rep)
	}
	return provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: gitCommit(), SourceHash: sourceHash(),
		Workload: r.wl.name, Seed: r.opts.seed, Scale: 1, Seconds: r.opts.seconds,
		Clients: r.wl.clients,
		Server: map[string]string{
			"graphs":           strings.Join(graphs, ","),
			"cache_bytes":      fmt.Sprint(c.CacheBytes),
			"timeout":          c.Timeout.String(),
			"parallelism":      fmt.Sprintf("%d (NumCPU)", runtime.NumCPU()),
			"scan_parallelism": fmt.Sprintf("%d (GOMAXPROCS)", runtime.GOMAXPROCS(0)),
			"max_inflight":     fmt.Sprint(c.MaxInflight),
			"queue_depth":      fmt.Sprint(c.QueueDepth),
			"wal_sync":         c.WALSyncMode,
			"compact_after":    fmt.Sprint(c.CompactAfter),
			"shards":           fmt.Sprint(c.Shards),
		},
		Dataset: map[string]int64{"vertex_states": int64(r.ds.vertices), "edge_states": int64(r.ds.edges), "bytes_on_disk": r.ds.savedBytes},
	}
}

// gitCommit reads HEAD from .git in the working directory without
// running git; it is "none" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceHash digests the Go sources and module files under the working
// directory, identifying the program measured when no commit is known.
func sourceHash() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
