package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// Run shape.
const (
	// setupRounds is how many times a run starts a server from cold; the
	// median is setup_s and the last server serves the timed loop.
	setupRounds = 31
	// probeAppends is the length of the append probe, spread evenly over
	// the gaps between loop segments. It is a count, not a time, so every
	// run grows the graph by the same amount.
	probeAppends = 160
	// failedLatency is charged to a failed request in every latency
	// percentile: a refused request misses any latency limit.
	failedLatency = serveTimeout
	// loopSegments splits the timed loop into runs of fresh client
	// goroutines, so how two closed loops happen to interleave on two
	// CPUs is sampled several times per run instead of once.
	loopSegments = 20
	// ingestPeriod and readThink pace live-ingest's two closed loops: the
	// ingester starts a batch at most every ingestPeriod and the
	// dashboard waits readThink before each read. Unpaced, the two loops
	// keep the graph lock held almost always and their interleaving
	// decides which requests wait behind an append, so run-to-run spreads
	// of the read percentiles, read rate and heap reached 0.2 to 0.4.
	ingestPeriod = 200 * time.Millisecond
	readThink    = 10 * time.Millisecond
)

// serverConfig is tgraph-serve's default configuration over graphs.
func serverConfig(graphs []serve.GraphConfig) serve.Config {
	return serve.Config{
		Graphs:           graphs,
		CacheBytes:       64 << 20,
		Timeout:          serveTimeout,
		Parallelism:      0, // NumCPU
		ScanParallelism:  0, // GOMAXPROCS
		MaxInflight:      64,
		QueueDepth:       128,
		BreakerThreshold: 3,
		BreakerCooldown:  2 * time.Second,
		WALSyncMode:      "each",
		CompactAfter:     0,
		Shards:           0,
	}
}

// batchRec is one append batch, in the order it was acked.
type batchRec struct {
	graph   string
	payload []byte
}

// run is one benchmark execution of one workload.
type run struct {
	opts    options
	wl      workload
	root    string
	ds      dataset
	queries []query
	weights []int
	cfg     serve.Config
	srv     *serve.Server
	app     *appender

	setupS       []float64
	setupDelta   map[string]int64 // obs counters over the last setup round
	warm         []opRec          // untimed warm-up requests, before the loop
	recs         [][]opRec        // per client, timed loop
	segTime      []time.Duration  // loop time of each segment, probe excluded
	probe        []opRec
	wantLen      []int
	lastBody     map[int]digest
	batches      []batchRec
	acked        map[string]int // records acked per graph, tail and warm-up included
	loopDelta    map[string]int64
	mallocs      uint64
	gcs          uint32
	heapMB       float64
	cacheMB      float64 // resident result bytes when heapMB was taken
	cacheEntries int64
	patchesMade  int64
	patchesUsed  int64
	restartRepl  int64
	walReplayMS  float64

	failures int
	failMsgs []string
	rp       *replayer
	replayed []replayedOp
	allocsAZ uint64
	allocsWZ uint64
}

func newRun(o options, wl workload) (*run, error) {
	root, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("%s-seed%d-pid%d", wl.name, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	r := &run{opts: o, wl: wl, root: root, lastBody: map[int]digest{}, acked: map[string]int{}}
	switch wl.name {
	case "live-ingest":
		r.queries, r.weights = liveCatalogue()
	}
	return r, nil
}

// config returns the server configuration with every graph's directory
// under sub.
func (r *run) config(sub string) serve.Config {
	graphs := slices.Clone(r.wl.graphs)
	for i := range graphs {
		graphs[i].Dir = filepath.Join(r.root, sub, r.wl.graphs[i].Dir)
	}
	return serverConfig(graphs)
}

func (r *run) execute() error {
	base := filepath.Join(r.root, "base")
	ds, err := genDataset(r.wl.dataset, r.opts.seed, base)
	if err != nil {
		return err
	}
	r.ds = ds
	r.app = newAppender(ds, r.opts.seed+100)
	if r.wl.probe == "" {
		if err := writeTail(base, r.app, tailBatches); err != nil {
			return fmt.Errorf("wal tail: %w", err)
		}
		r.acked[r.wl.graphs[0].Name] = tailBatches * batchRecords
	}
	for _, sub := range []string{"run", "replay"} {
		for _, g := range r.wl.graphs {
			if err := copyDir(base, filepath.Join(r.root, sub, g.Dir)); err != nil {
				return err
			}
		}
	}
	r.cfg = r.config("run")
	if err := r.setup(); err != nil {
		return err
	}
	if err := r.warmUp(); err != nil {
		return err
	}
	if err := r.timedLoop(); err != nil {
		return err
	}
	r.loopDelta = counterDelta(r.loopDelta)
	if err := r.check(); err != nil {
		return err
	}
	if r.opts.trace {
		return r.traceReplay()
	}
	return nil
}

// counters snapshots every obs counter; counterDelta(before) returns the
// change since before.
func counters() map[string]int64 { return obs.Default().Snapshot().Counters }

func counterDelta(before map[string]int64) map[string]int64 {
	out := counters()
	for k, v := range before {
		out[k] -= v
	}
	return out
}

// setup starts the server setupRounds times, each timed from serve.New
// until every graph has answered its first query, and keeps the last.
func (r *run) setup() error {
	first := make([][]byte, len(r.cfg.Graphs))
	for i, g := range r.cfg.Graphs {
		first[i] = newQuery(g.Name, clsExplore, rangeStep(0, 1)).body
	}
	for round := range setupRounds {
		runtime.GC()
		before := counters()
		start := time.Now()
		srv, err := serve.New(r.cfg)
		if err != nil {
			return err
		}
		c := newClient(srv.Handler())
		for i, g := range r.cfg.Graphs {
			req, body := newPost("/v1/pipeline")
			c.serve(req, body, first[i], false, false)
			if c.w.status() != http.StatusOK {
				return fmt.Errorf("setup: first query on %s: status %d", g.Name, c.w.status())
			}
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		r.setupDelta = counterDelta(before)
		if round < setupRounds-1 {
			if err := srv.DrainWithin(serveTimeout); err != nil {
				return err
			}
			continue
		}
		r.srv = srv
	}
	return nil
}

// warmUp issues live-ingest's untimed requests: each dashboard query
// once, then one append, so incremental views exist before timing.
func (r *run) warmUp() error {
	if r.wl.name != "live-ingest" {
		return nil
	}
	c := newClient(r.srv.Handler())
	r.wantLen = make([]int, len(r.queries))
	for i := range r.queries {
		rec := c.query(&r.queries[i], i, false)
		if rec.code != http.StatusOK {
			return fmt.Errorf("warm-up query %d: status %d", i, rec.code)
		}
		r.wantLen[i] = int(rec.size)
		r.warm = append(r.warm, rec)
	}
	rec, _, err := r.appendOne(c, r.wl.graphs[0].Name)
	if err != nil {
		return err
	}
	r.warm = append(r.warm, rec)
	return nil
}

// appendOne posts the next generated batch to graph.
func (r *run) appendOne(c *client, graph string) (opRec, serve.AppendResponse, error) {
	ds := r.app.batch()
	payload, err := json.Marshal(serve.AppendRequest{Graph: graph, Deltas: ds})
	if err != nil {
		return opRec{}, serve.AppendResponse{}, err
	}
	rec, ack, err := c.appendBatch(graph, ds, len(r.batches))
	if err != nil {
		return rec, ack, err
	}
	r.batches = append(r.batches, batchRec{graph: graph, payload: payload})
	if rec.code == http.StatusOK {
		r.acked[graph] += len(ds)
	}
	return rec, ack, nil
}

// timedLoop runs the workload's closed-loop clients for --seconds.
func (r *run) timedLoop() error {
	var steps []func(c *client) (opRec, error)
	switch r.wl.name {
	case "explore-cold":
		sw := newSweep(r.opts.seed)
		steps = append(steps, func(c *client) (opRec, error) {
			r.queries = append(r.queries, sw.next())
			idx := len(r.queries) - 1
			rec := c.query(&r.queries[idx], idx, true)
			r.lastBody[idx] = c.lastDigest()
			return rec, nil
		})
	case "live-ingest":
		// epoch counts acked appends; patched[e] is how many entries the
		// e-th append patched, and used holds (epoch, query) pairs the
		// dashboard read as patched, so each patch counts once.
		var epoch atomic.Int64
		var patched []int64
		used := map[[2]int64]bool{}
		pick := newPicker(r.opts.seed*10, r.weights)
		var due time.Time
		graph := r.wl.graphs[0].Name
		steps = append(steps,
			func(c *client) (opRec, error) {
				time.Sleep(readThink)
				idx := pick.next()
				rec := c.query(&r.queries[idx], idx, false)
				if rec.outcome == outPatched {
					used[[2]int64{epoch.Load(), int64(idx)}] = true
				}
				return rec, nil
			},
			func(c *client) (opRec, error) {
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				due = time.Now().Add(ingestPeriod)
				rec, ack, err := r.appendOne(c, graph)
				patched = append(patched, int64(ack.Patched))
				epoch.Add(1)
				return rec, err
			})
		defer func() {
			for _, p := range patched {
				r.patchesMade += p
			}
			r.patchesUsed = int64(len(used))
		}()
	}
	r.recs = make([][]opRec, len(steps))
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r.loopDelta = counters()
	h := r.srv.Handler()
	probe := newClient(h)
	errs := make([]error, len(steps))
	start := time.Now()
	segLen := time.Duration(r.opts.seconds) * time.Second / loopSegments
	for range loopSegments {
		segStart := time.Now()
		deadline := segStart.Add(segLen)
		var wg sync.WaitGroup
		for i, step := range steps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := newClient(h)
				for errs[i] == nil && time.Now().Before(deadline) {
					at := time.Since(start)
					rec, err := step(c)
					if err != nil {
						errs[i] = err
						return
					}
					rec.start = int64(at)
					r.recs[i] = append(r.recs[i], rec)
				}
			}()
		}
		wg.Wait()
		r.segTime = append(r.segTime, time.Since(segStart))
		if r.wl.probe != "" {
			if err := r.appendProbe(probe, start); err != nil {
				return err
			}
		}
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.mallocs, r.gcs = ms1.Mallocs-ms0.Mallocs, ms1.NumGC-ms0.NumGC
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	r.validateLoop()
	return nil
}

// validateLoop applies the in-loop checks: status, cache outcome and
// body length.
func (r *run) validateLoop() {
	for _, rs := range r.recs {
		for _, rec := range rs {
			if rec.code >= 500 {
				r.failf("%s %d: status %d", kindName(rec.kind), rec.idx, rec.code)
			}
			if rec.kind != kindQuery || rec.code != http.StatusOK {
				continue
			}
			q := &r.queries[rec.idx]
			if !q.allowed(rec.outcome) {
				r.failf("query %d (class %d): unexpected cache outcome %q", rec.idx, q.class, outcomeNames[rec.outcome])
			}
			if q.class == clsOld && int(rec.size) != r.wantLen[rec.idx] {
				r.failf("query %d: body %d bytes, warm-up served %d", rec.idx, rec.size, r.wantLen[rec.idx])
			}
		}
	}
}

func kindName(k uint8) string {
	if k == kindAppend {
		return "append"
	}
	return "query"
}

// appendProbe measures the append path on workloads that do not append
// in their loop: after each loop segment, with the clients stopped, it
// posts that segment's share of the probe, so the appends sample the
// same stretch of time as the queries. The batches are dated in a month
// none of the workload's queries reads, so every cached result stays
// valid.
func (r *run) appendProbe(c *client, start time.Time) error {
	for range probeAppends / loopSegments {
		at := time.Since(start)
		rec, _, err := r.appendOne(c, r.wl.probe)
		if err != nil {
			return err
		}
		if rec.code >= 500 {
			r.failf("probe append %d: status %d", rec.idx, rec.code)
		}
		rec.start = int64(at)
		r.probe = append(r.probe, rec)
	}
	return nil
}

// measureHeap sets live_heap_mb: HeapInuse after a GC, less the
// generator's own records. It runs after the loop, the probe and the
// final read of every catalogue query, so the cache holds each
// dashboard query at its latest version whatever the loop's last
// request was. It also notes the cache's resident entries and bytes for
// the report.
func (r *run) measureHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gen := 0
	for _, rs := range r.recs {
		gen += cap(rs) * int(unsafe.Sizeof(opRec{}))
	}
	r.heapMB = float64(int64(ms.HeapInuse)-int64(gen)) / (1 << 20)
	g := obs.Default().Snapshot().Gauges
	r.cacheMB, r.cacheEntries = float64(g["qcache.bytes"])/(1<<20), g["qcache.entries"]
}

// check is the output-correctness check, outside the timed loop: the
// last body the run served for every distinct query must equal, byte
// for byte, what a freshly started server on the same directories
// answers (replaying the WAL), and no acked record may be lost.
func (r *run) check() error {
	if r.wl.name != "explore-cold" {
		// Bodies were only counted in the loop; read each query once more
		// from the running server, after the last append.
		c := newClient(r.srv.Handler())
		for i := range r.queries {
			rec := c.query(&r.queries[i], i, true)
			if rec.code != http.StatusOK {
				r.failf("final read of query %d: status %d", i, rec.code)
				continue
			}
			r.lastBody[i] = c.lastDigest()
		}
	}
	r.measureHeap()
	if err := r.srv.DrainWithin(serveTimeout); err != nil {
		return err
	}
	r.srv = nil
	runtime.GC()
	before := counters()
	srv, err := serve.New(r.cfg)
	if err != nil {
		return err
	}
	c := newClient(srv.Handler())
	idxs := make([]int, 0, len(r.lastBody))
	for i := range r.lastBody {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		rec := c.query(&r.queries[i], i, true)
		if rec.code != http.StatusOK {
			r.failf("restart: query %d: status %d", i, rec.code)
			continue
		}
		if got, want := c.lastDigest(), r.lastBody[i]; got != want {
			r.failf("restart: query %d: body differs from the last one served (%d vs %d bytes)", i, got.n, want.n)
		}
	}
	r.restartRepl = counterDelta(before)["storage.wal.records_replayed"]
	infos, err := c.graphs()
	if err != nil {
		srv.DrainWithin(serveTimeout)
		return err
	}
	for _, info := range infos {
		if want := r.acked[info.Name]; int(info.WALSeq) != want {
			r.failf("restart: graph %s: WAL holds %d records, %d were acked", info.Name, info.WALSeq, want)
		}
	}
	return srv.DrainWithin(serveTimeout)
}

// replayedOp pairs a replayed operation with its untimed-run record.
type replayedOp struct {
	rec  opRec
	root int32 // root span id
}

// traceReplay replays the run's operations under spans, on copies of
// the starting directories, for at most --seconds.
func (r *run) traceReplay() error {
	// The WAL replay a restart performs, timed over the run directories.
	for _, g := range r.cfg.Graphs {
		m, err := storage.ReadManifest(g.Dir)
		if err != nil {
			return err
		}
		var after uint64
		if m != nil {
			after = m.WALSeq
		}
		if wal.Exists(g.Dir) {
			start := time.Now()
			if _, err := wal.Read(g.Dir, after, false); err != nil {
				return err
			}
			r.walReplayMS += float64(time.Since(start)) / float64(time.Millisecond)
		}
	}
	p, err := newReplayer(r.config("replay"))
	if err != nil {
		return err
	}
	defer p.close()
	r.rp = p
	req := 0
	if err := p.setup(req); err != nil {
		return err
	}
	// Loop and probe operations replay in start order. The warm-up and
	// the probe are always replayed; the loop's operations only until
	// --seconds of replay have passed.
	loop := append(r.loopRecs(), r.probe...)
	slices.SortStableFunc(loop, func(a, b opRec) int { return int(a.start - b.start) })
	deadline := time.Now().Add(time.Duration(r.opts.seconds) * time.Second)
	for phase, recs := range [][]opRec{r.warm, loop} {
		for _, rec := range recs {
			if phase == 1 && time.Now().After(deadline) && (rec.kind == kindQuery || r.wl.probe == "") {
				continue
			}
			if rec.code != http.StatusOK {
				continue
			}
			req++
			root := int32(len(p.tr.spans))
			if rec.kind == kindQuery {
				if _, err := p.query(req, r.queries[rec.idx].body); err != nil {
					return fmt.Errorf("replay query %d: %w", rec.idx, err)
				}
			} else {
				b := r.batches[rec.idx]
				if err := p.appendBatch(req, b.graph, b.payload); err != nil {
					return fmt.Errorf("replay append %d: %w", rec.idx, err)
				}
			}
			r.replayed = append(r.replayed, replayedOp{rec: rec, root: root})
		}
	}
	by, count := "firstName", "members"
	if r.wl.dataset == "WikiTalk" {
		by, count = "editCount", "users"
	}
	if r.allocsAZ, r.allocsWZ, err = p.zoomAllocs(r.wl.graphs[0].Name, by, count); err != nil {
		return err
	}
	return p.tr.write(filepath.Join(r.opts.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.wl.name, r.opts.seed)))
}
