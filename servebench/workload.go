package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/serve"
)

// Query classes: what the timed loop may observe for a query, checked
// on every response.
const (
	clsExplore uint8 = iota // distinct sweep query: always a cold miss
	clsFull                 // full-range single zoom: incrementally maintained
	clsOld                  // range over older snapshots: appends never touch it
	clsLatest               // range over the latest snapshot: every append invalidates it
)

// query is one distinct pipeline of a workload's catalogue.
type query struct {
	body  []byte // the marshalled serve.PipelineRequest
	class uint8
}

// allowed reports whether a timed-loop response outcome fits the
// query's class.
func (q *query) allowed(outcome uint8) bool {
	switch q.class {
	case clsExplore:
		return outcome == outMiss
	case clsOld:
		return outcome == outHit
	case clsFull:
		// A read racing an append may miss on the freshly bumped version
		// (or share that recompute) before the patched entry lands.
		return outcome <= outPatched
	case clsLatest:
		return outcome <= outShared
	}
	return false
}

func newQuery(graph string, class uint8, steps ...serve.StepRequest) query {
	body, err := json.Marshal(serve.PipelineRequest{Graph: graph, Steps: steps})
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return query{body: body, class: class}
}

func rangeStep(start, end int64) serve.StepRequest {
	return serve.StepRequest{Op: "range", Start: start, End: end}
}

func azoomStep(by, count string) serve.StepRequest {
	return serve.StepRequest{Op: "azoom", GroupBy: by, Count: count}
}

func wzoomStep(units int, vq, eq string) serve.StepRequest {
	return serve.StepRequest{Op: "wzoom", Window: fmt.Sprintf("%d units", units),
		VQuant: vq, EQuant: eq, VResolve: "last", EResolve: "last"}
}

// workload names one traffic mix.
type workload struct {
	name    string
	clients string // the closed-loop clients, for provenance
	dataset string
	graphs  []serve.GraphConfig // Dir is the graph's directory name under the run root
	// probe names the graph the append probe, run between loop
	// segments, writes to; empty when the workload appends inside its
	// timed loop.
	probe string
}

var workloads = []workload{
	{
		name: "explore-cold", clients: "1 explorer", dataset: "SNB", probe: "snb-og",
		graphs: []serve.GraphConfig{{Name: "snb-og", Dir: "snb-og", Rep: "og"}, {Name: "snb-ve", Dir: "snb-ve", Rep: "ve"}},
	},
	{
		name: "live-ingest", clients: "1 ingester + 1 dashboard", dataset: "WikiTalk",
		graphs: []serve.GraphConfig{{Name: "wiki", Dir: "wiki", Rep: "og"}},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Explore sweep shape. A query's cost grows with its range's end
// (SNB only grows, so later months hold more states), so the sweep
// cycles through fixed end buckets as well as representations and
// aZoom. Ranges end at or before snapshot 35, the month the append
// probe writes to.
const (
	exploreMinWidth = 2
	exploreMaxWidth = 8
)

var (
	exploreEnds = [][2]int64{{6, 14}, {14, 21}, {21, 28}, {28, snbSnapshots}} // [lo, hi) of the range end
	quantifiers = []string{"exists", "all", "most", "at least 0.5"}
)

// sweep generates explore-cold's seeded, de-duplicated queries on
// demand, so the run holds only the ones it served. Query i has shape
// i mod 16: it serves @og when i is even and @ve when odd, adds an
// aZoom step when (i/2) is odd, and ends its range in bucket (i/4) mod
// 4. Within a shape, its k-th query steps every parameter by one from
// seeded offsets (end k, width k, window k, vertex quantifier k/4, edge
// quantifier k/16, each modulo its choices), so every run serves the
// same even mix of shapes and parameter values and the seed picks only
// which combinations. Drawn at random, the mix itself would vary from
// run to run: resampling one run's ~1,100 queries moves their median by
// 5% (one standard deviation).
type sweep struct {
	off  [16][5]int
	seen map[string]bool
	i    int
}

func newSweep(seed int64) *sweep {
	s := &sweep{seen: map[string]bool{}}
	rng := rand.New(rand.NewSource(seed))
	for shape := range s.off {
		for j := range s.off[shape] {
			s.off[shape][j] = rng.Intn(1 << 16)
		}
	}
	return s
}

func (s *sweep) next() query {
	shape := s.i % 16
	graph := [2]string{"snb-og", "snb-ve"}[shape%2]
	withAZ := (shape/2)%2 == 1
	ends := exploreEnds[shape/4]
	off := s.off[shape]
	for k := s.i / 16; ; k++ { // a repeat (none within 448) moves on
		end := ends[0] + int64((k+off[0])%int(ends[1]-ends[0]))
		width := exploreMinWidth + int64((k+off[1])%(exploreMaxWidth-exploreMinWidth+1))
		units := 1 + (k+off[2])%4
		vq, eq := quantifiers[(k/4+off[3])%len(quantifiers)], quantifiers[(k/16+off[4])%len(quantifiers)]
		steps := []serve.StepRequest{rangeStep(end-width, end)}
		if withAZ {
			steps = append(steps, azoomStep("firstName", "members"))
		}
		steps = append(steps, wzoomStep(units, vq, eq))
		q := newQuery(graph, clsExplore, steps...)
		if !s.seen[string(q.body)] {
			s.seen[string(q.body)] = true
			s.i++
			return q
		}
	}
}

// liveCatalogue is live-ingest's dashboard over WikiTalk @og: two
// full-range single zooms (incrementally maintained, answered
// "patched" after appends), three ranges over older snapshots (appends
// dated in the last snapshot never touch them) and two ranges over the
// latest snapshot (invalidated by every append). weights is how often
// the dashboard reads each.
func liveCatalogue() (qs []query, weights []int) {
	last := int64(wikiSnapshots)
	qs = []query{
		newQuery("wiki", clsFull, azoomStep("editCount", "users")),
		newQuery("wiki", clsFull, wzoomStep(3, "all", "exists")),
		newQuery("wiki", clsOld, rangeStep(0, 12), wzoomStep(4, "exists", "exists")),
		newQuery("wiki", clsOld, rangeStep(6, 18), azoomStep("editCount", "users")),
		newQuery("wiki", clsOld, rangeStep(12, last-2), wzoomStep(2, "all", "all")),
		newQuery("wiki", clsLatest, rangeStep(last-4, last), azoomStep("editCount", "users")),
		newQuery("wiki", clsLatest, rangeStep(last-6, last), wzoomStep(2, "exists", "exists")),
	}
	return qs, []int{2, 2, 1, 1, 1, 1, 1}
}

// picker draws catalogue indexes by weight.
type picker struct {
	rng   *rand.Rand
	table []int
}

func newPicker(seed int64, weights []int) *picker {
	p := &picker{rng: rand.New(rand.NewSource(seed))}
	for i, w := range weights {
		for range w {
			p.table = append(p.table, i)
		}
	}
	return p
}

func (p *picker) next() int { return p.table[p.rng.Intn(len(p.table))] }
