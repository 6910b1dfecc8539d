package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

// Dataset shapes. Both generators run at bench scale 1; the snapshot
// counts follow the repo's serve (SNB, 36 months) and ingest (WikiTalk,
// 24 months) experiments.
const (
	snbSnapshots  = 36
	wikiSnapshots = 24
	// batchRecords is the size of every append batch.
	batchRecords = 8
	// wikiEdgeStates is the number of WikiTalk message states a run
	// keeps. The generator's output swings between about 10k and 14k
	// states with the seed (its preferential attachment skips more or
	// fewer pairs), which would swing every append and zoom cost with
	// it; a seeded sample of a fixed size keeps the seed's graph shape
	// at a size every seed reaches.
	wikiEdgeStates = 9500
	// tailBatches is how many batches live-ingest's directory carries in
	// its uncompacted WAL tail before the server first opens it.
	tailBatches = 32
)

// dataset is a generated graph saved once per run, plus what the
// append generator needs to build valid new edges against it.
type dataset struct {
	name       string
	vertices   int // vertex states; ids are 1..vertices
	edges      int // edge states
	maxEdgeID  int64
	edgeType   string
	appendAt   temporal.Interval // the period appended edges are dated in
	savedBytes int64
}

// genDataset generates kind ("SNB" or "WikiTalk") from seed and saves
// it as one committed storage directory.
func genDataset(kind string, seed int64, dir string) (dataset, error) {
	cfg := bench.Config{Scale: 1, Seed: seed}
	var d datagen.Dataset
	ds := dataset{name: kind}
	switch kind {
	case "SNB":
		d = bench.SNBDataset(cfg, snbSnapshots)
		ds.edgeType = "knows"
		// The last month: no explore-cold range reaches it, so the
		// append probe leaves every result of the workload valid.
		ds.appendAt = temporal.MustInterval(snbSnapshots-1, snbSnapshots)
	case "WikiTalk":
		d = bench.WikiTalkDataset(cfg, wikiSnapshots)
		d.Edges = sample(d.Edges, wikiEdgeStates, seed)
		ds.edgeType = "message"
		// The last snapshot: recent, and inside the lifetime.
		ds.appendAt = temporal.MustInterval(wikiSnapshots-1, wikiSnapshots)
	default:
		return ds, fmt.Errorf("unknown dataset %q", kind)
	}
	ds.vertices, ds.edges = len(d.Vertices), len(d.Edges)
	for _, e := range d.Edges {
		ds.maxEdgeID = max(ds.maxEdgeID, int64(e.ID))
	}
	ctx := dataflow.NewContext()
	defer ctx.Close()
	if err := storage.SaveGraph(dir, core.NewVE(ctx, d.Vertices, d.Edges), storage.SaveOptions{}); err != nil {
		return ds, fmt.Errorf("save %s: %w", kind, err)
	}
	n, err := dirBytes(dir)
	ds.savedBytes = n
	return ds, err
}

// sample keeps n of es, chosen by seed, in their original order.
func sample(es []core.EdgeTuple, n int, seed int64) []core.EdgeTuple {
	if len(es) <= n {
		return es
	}
	keep := rand.New(rand.NewSource(seed)).Perm(len(es))[:n]
	slices.Sort(keep)
	out := make([]core.EdgeTuple, n)
	for i, k := range keep {
		out[i] = es[k]
	}
	return out
}

// appender generates the seeded stream of append batches: new edges of
// the dataset's edge type between existing vertices, chosen with
// preferential attachment, dated in ds.appendAt, with fresh edge ids.
type appender struct {
	ds   dataset
	rng  *rand.Rand
	zipf *rand.Zipf
	next int64
}

func newAppender(ds dataset, seed int64) *appender {
	rng := rand.New(rand.NewSource(seed))
	return &appender{
		ds:   ds,
		rng:  rng,
		zipf: rand.NewZipf(rng, 1.4, 4, uint64(ds.vertices-1)),
		next: ds.maxEdgeID + 1,
	}
}

// batch returns the next batchRecords-edge batch.
func (a *appender) batch() []serve.DeltaJSON {
	out := make([]serve.DeltaJSON, 0, batchRecords)
	for len(out) < batchRecords {
		src, dst := int64(a.zipf.Uint64())+1, int64(a.rng.Intn(a.ds.vertices))+1
		if src == dst {
			continue
		}
		out = append(out, serve.DeltaJSON{
			Kind: "edge", ID: a.next, Src: src, Dst: dst,
			Start: int64(a.ds.appendAt.Start), End: int64(a.ds.appendAt.End),
			Props: map[string]string{"type": a.ds.edgeType},
		})
		a.next++
	}
	return out
}

// toWAL converts wire deltas to log records (edge deltas only, which is
// all the appender makes).
func toWAL(ds []serve.DeltaJSON) []wal.Delta {
	out := make([]wal.Delta, len(ds))
	for i, d := range ds {
		out[i] = wal.Delta{
			Kind: wal.KindEdge, ID: d.ID, Src: d.Src, Dst: d.Dst,
			Interval: temporal.MustInterval(temporal.Time(d.Start), temporal.Time(d.End)),
			Props:    parseProps(d.Props),
		}
	}
	return out
}

// writeTail appends n batches straight to dir's write-ahead log, the
// way an offline importer leaves an uncompacted tail behind.
func writeTail(dir string, a *appender, n int) error {
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	for range n {
		if _, err := l.Append(toWAL(a.batch())...); err != nil {
			l.Close()
			return err
		}
	}
	return l.Close()
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
