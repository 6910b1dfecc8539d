package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/incr"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/qcache"
	"repro/internal/resil"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

// The traced replay re-executes a run's operations, in the order they
// started, through the public functions of each layer, in the sequence
// serve calls them for a request: admission, body decode, base-stamp
// check (and lazy load), cache lookup, rebind, zoom steps, encode and
// cache insert; for an append, the WAL append, the in-memory rebuild,
// surgical invalidation and incremental view maintenance. Each call is
// wrapped in a span. It runs on one goroutine over a fresh copy of the
// run's starting directories, so every span's parent is exact; what the
// replay cannot see (lock waits, contention between clients) is left in
// serve.unattributed_ms_p50.

// rstep is one parsed pipeline step, mirroring serve's wire parsing.
type rstep struct {
	op      string
	canon   string
	depends temporal.Interval
	apply   func(core.TGraph) (core.TGraph, error)
	az      *core.AZoomSpec
	wz      *core.WZoomSpec
}

func parseStep(r serve.StepRequest) (rstep, error) {
	switch r.Op {
	case "azoom":
		var aggs []props.AggField
		if r.Count != "" {
			aggs = append(aggs, props.Count(r.Count))
		}
		newType := r.NewType
		if newType == "" {
			newType = r.GroupBy + "-group"
		}
		spec := core.GroupByProperty(r.GroupBy, newType, aggs...)
		return rstep{op: "azoom", canon: fmt.Sprintf("azoom(by=%s,type=%s,count=%s)", r.GroupBy, newType, r.Count),
			apply: func(g core.TGraph) (core.TGraph, error) { return g.AZoom(spec) }, az: &spec}, nil
	case "wzoom":
		w, err := temporal.ParseWindowSpec(r.Window)
		if err != nil {
			return rstep{}, err
		}
		vq, err := parseQuant(r.VQuant)
		if err != nil {
			return rstep{}, err
		}
		eq, err := parseQuant(r.EQuant)
		if err != nil {
			return rstep{}, err
		}
		vr, err := props.ParseResolver(r.VResolve)
		if err != nil {
			return rstep{}, err
		}
		er, err := props.ParseResolver(r.EResolve)
		if err != nil {
			return rstep{}, err
		}
		spec := core.WZoomSpec{Window: w, VQuant: vq, EQuant: eq,
			VResolve: props.ResolveSpec{Default: vr}, EResolve: props.ResolveSpec{Default: er}}
		return rstep{op: "wzoom", canon: fmt.Sprintf("wzoom(w=%s,vq=%s,eq=%s,vr=%s,er=%s)", w, vq, eq, vr, er),
			apply: func(g core.TGraph) (core.TGraph, error) { return g.WZoom(spec) }, wz: &spec}, nil
	case "range":
		iv := temporal.MustInterval(temporal.Time(r.Start), temporal.Time(r.End))
		return rstep{op: "range", canon: fmt.Sprintf("range(%d,%d)", r.Start, r.End), depends: iv,
			apply: func(g core.TGraph) (core.TGraph, error) { return clipRange(g, iv) }}, nil
	}
	return rstep{}, fmt.Errorf("replay: unsupported op %q", r.Op)
}

func parseQuant(s string) (temporal.Quantifier, error) {
	if s == "" {
		return temporal.Exists(), nil
	}
	return temporal.ParseQuantifier(s)
}

func clipRange(g core.TGraph, iv temporal.Interval) (core.TGraph, error) {
	var vs []core.VertexTuple
	for _, v := range g.VertexStates() {
		if v.Interval.Overlaps(iv) {
			v.Interval = v.Interval.Intersect(iv)
			vs = append(vs, v)
		}
	}
	var es []core.EdgeTuple
	for _, e := range g.EdgeStates() {
		if e.Interval.Overlaps(iv) {
			e.Interval = e.Interval.Intersect(iv)
			es = append(es, e)
		}
	}
	ve := core.NewVE(g.Context(), vs, es)
	if g.Rep() == core.RepVE {
		return ve, nil
	}
	return core.Convert(ve, g.Rep())
}

func parseProps(m map[string]string) props.Props {
	if len(m) == 0 {
		return props.Props{}
	}
	var b props.Builder
	b.Grow(len(m))
	for k, v := range m {
		b.Set(k, storage.ParseValue(v))
	}
	return b.Build()
}

// encodeGraph renders a result the way serve does: coalesced, sorted,
// deterministic JSON.
func encodeGraph(g core.TGraph) ([]byte, error) {
	c := g.Coalesce()
	life := c.Lifetime()
	out := serve.GraphJSON{
		Rep:      c.Rep().String(),
		Lifetime: [2]int64{int64(life.Start), int64(life.End)},
		Vertices: []serve.StateJSON{},
		Edges:    []serve.StateJSON{},
	}
	for _, v := range c.VertexStates() {
		out.Vertices = append(out.Vertices, serve.StateJSON{ID: int64(v.ID),
			Start: int64(v.Interval.Start), End: int64(v.Interval.End), Props: propsMap(v.Props)})
	}
	for _, e := range c.EdgeStates() {
		out.Edges = append(out.Edges, serve.StateJSON{ID: int64(e.ID), Src: int64(e.Src), Dst: int64(e.Dst),
			Start: int64(e.Interval.Start), End: int64(e.Interval.End), Props: propsMap(e.Props)})
	}
	less := func(a, b serve.StateJSON) int {
		for _, d := range [...]int64{a.ID - b.ID, a.Src - b.Src, a.Dst - b.Dst, a.Start - b.Start, a.End - b.End} {
			if d != 0 {
				return int(max(-1, min(d, 1)))
			}
		}
		return 0
	}
	slices.SortStableFunc(out.Vertices, less)
	slices.SortStableFunc(out.Edges, less)
	return json.Marshal(out)
}

func propsMap(p props.Props) map[string]string {
	if p.Len() == 0 {
		return nil
	}
	m := make(map[string]string, p.Len())
	p.Range(func(k props.Key, v props.Value) bool {
		m[k.Name()] = v.String()
		return true
	})
	return m
}

// rgraph is the replay's counterpart of serve's per-graph handle.
type rgraph struct {
	name, dir string
	rep       core.Representation
	stamp     string
	g         core.TGraph
	log       *wal.Log
	deps      map[string]rdep
	views     map[string]*rview
}

type rdep struct {
	iv      temporal.Interval
	version uint64
}

type rview struct {
	az       *core.AZoomSpec
	wz       *core.WZoomSpec
	view     incr.View
	disabled bool
}

// replayer owns the layer objects the replay drives, configured like
// the served run.
type replayer struct {
	tr     *tracer
	cache  *qcache.Cache
	lim    *resil.Limiter
	par    int
	graphs map[string]*rgraph
	// dataflow work of replayed cold computations.
	computations, shuffled, tasks int64
}

func newReplayer(cfg serve.Config) (*replayer, error) {
	p := &replayer{
		tr:     newTracer(),
		cache:  qcache.New(cfg.CacheBytes),
		lim:    resil.NewLimiter(cfg.MaxInflight, cfg.QueueDepth),
		par:    runtime.NumCPU(),
		graphs: map[string]*rgraph{},
	}
	for _, gc := range cfg.Graphs {
		rep, err := repOf(gc.Rep)
		if err != nil {
			return nil, err
		}
		p.graphs[gc.Name] = &rgraph{name: gc.Name, dir: gc.Dir, rep: rep}
	}
	return p, nil
}

func repOf(s string) (core.Representation, error) {
	switch s {
	case "og":
		return core.RepOG, nil
	case "ve", "":
		return core.RepVE, nil
	}
	return 0, fmt.Errorf("replay: unsupported rep %q", s)
}

func (p *replayer) close() {
	for _, g := range p.graphs {
		if g.log != nil {
			g.log.Close()
		}
	}
}

// ensure mirrors serve's stamp check and lazy (re)load.
func (p *replayer) ensure(req int, g *rgraph) error {
	s := p.tr.begin(req, "storage.base_stamp")
	stamp, err := storage.BaseStamp(g.dir)
	p.tr.end(s)
	if err != nil {
		return err
	}
	if g.g != nil && g.stamp == stamp {
		return nil
	}
	l := p.tr.begin(req, "storage.load")
	tg, _, err := storage.Load(dataflow.NewContext(dataflow.WithParallelism(p.par)), g.dir, storage.LoadOptions{Rep: g.rep})
	p.tr.end(l)
	if err != nil {
		return err
	}
	if g.log == nil {
		o := p.tr.begin(req, "wal.open")
		mode, _ := wal.ParseSyncMode("each")
		g.log, _, err = wal.Open(g.dir, wal.Options{Mode: mode})
		p.tr.end(o)
		if err != nil {
			return err
		}
	}
	g.g, g.stamp, g.deps = tg, stamp, map[string]rdep{}
	for _, v := range g.views {
		v.view = nil
	}
	return nil
}

func (p *replayer) admit(req int) (func(), error) {
	a := p.tr.begin(req, "resil.admit")
	defer p.tr.end(a)
	return p.lim.Acquire(context.Background())
}

// setup loads every graph, as a server's first queries do.
func (p *replayer) setup(req int) error {
	root := p.tr.begin(req, "serve.setup")
	defer p.tr.end(root)
	names := make([]string, 0, len(p.graphs))
	for name := range p.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := p.ensure(req, p.graphs[name]); err != nil {
			return err
		}
	}
	return nil
}

// query replays one pipeline request and returns its body.
func (p *replayer) query(req int, payload []byte) ([]byte, error) {
	root := p.tr.begin(req, "serve.request")
	defer p.tr.end(root)
	release, err := p.admit(req)
	if err != nil {
		return nil, err
	}
	defer release()
	d := p.tr.begin(req, "serve.decode")
	var pr serve.PipelineRequest
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	err = dec.Decode(&pr)
	steps := make([]rstep, len(pr.Steps))
	for i := 0; err == nil && i < len(pr.Steps); i++ {
		steps[i], err = parseStep(pr.Steps[i])
	}
	p.tr.end(d)
	if err != nil {
		return nil, err
	}
	g := p.graphs[pr.Graph]
	if err := p.ensure(req, g); err != nil {
		return nil, err
	}
	var dep temporal.Interval
	canon := make([]string, len(steps))
	for i, st := range steps {
		canon[i] = st.canon
		if !st.depends.IsEmpty() {
			if dep.IsEmpty() {
				dep = st.depends
			} else {
				dep = dep.Intersect(st.depends)
			}
		}
	}
	tag := "full"
	if !dep.IsEmpty() {
		tag = fmt.Sprintf("r%d:%d", dep.Start, dep.End)
	}
	e, ok := g.deps[tag]
	if !ok {
		e = rdep{iv: dep}
		g.deps[tag] = e
	}
	if len(steps) == 1 && (steps[0].az != nil || steps[0].wz != nil) {
		if g.views == nil {
			g.views = map[string]*rview{}
		}
		if _, ok := g.views[steps[0].canon]; !ok {
			g.views[steps[0].canon] = &rview{az: steps[0].az, wz: steps[0].wz}
		}
	}
	key := fmt.Sprintf("%s|%s|v%d|%s", g.name, tag, e.version, qcache.Key(g.stamp, strings.Join(canon, ";")))
	lk := p.tr.begin(req, "qcache.lookup")
	v, hit := p.cache.Get(key)
	p.tr.end(lk)
	if hit {
		return v.([]byte), nil
	}
	body, err := p.compute(req, g, steps)
	if err != nil {
		return nil, err
	}
	ins := p.tr.begin(req, "qcache.insert")
	_, _, err = p.cache.DoCtx(context.Background(), key, func() (any, int64, error) { return body, int64(len(body)), nil })
	p.tr.end(ins)
	return body, err
}

func (p *replayer) compute(req int, g *rgraph, steps []rstep) ([]byte, error) {
	c := p.tr.begin(req, "serve.compute")
	defer p.tr.end(c)
	reg := obs.Default()
	shuffled0, tasks0 := reg.Counter("dataflow.shuffled_records").Value(), reg.Counter("dataflow.tasks").Value()
	rb := p.tr.begin(req, "core.rebind")
	ctx := dataflow.NewContext(dataflow.WithParallelism(p.par), dataflow.WithTimeout(serveTimeout))
	defer ctx.Close()
	out, err := core.Rebind(g.g, ctx)
	p.tr.end(rb)
	if err != nil {
		return nil, err
	}
	var body []byte
	err = ctx.Run(func() error {
		for _, st := range steps {
			s := p.tr.begin(req, "core."+strings.ToLower(g.rep.String())+"."+st.op)
			var e error
			out, e = st.apply(out)
			p.tr.end(s)
			if e != nil {
				return e
			}
		}
		enc := p.tr.begin(req, "serve.encode")
		defer p.tr.end(enc)
		var e error
		body, e = encodeGraph(out)
		return e
	})
	p.computations++
	p.shuffled += reg.Counter("dataflow.shuffled_records").Value() - shuffled0
	p.tasks += reg.Counter("dataflow.tasks").Value() - tasks0
	return body, err
}

// appendBatch replays one append request.
func (p *replayer) appendBatch(req int, graph string, payload []byte) error {
	root := p.tr.begin(req, "serve.append")
	defer p.tr.end(root)
	release, err := p.admit(req)
	if err != nil {
		return err
	}
	defer release()
	d := p.tr.begin(req, "serve.decode")
	var ar serve.AppendRequest
	err = json.Unmarshal(payload, &ar)
	ds := toWAL(ar.Deltas)
	p.tr.end(d)
	if err != nil {
		return err
	}
	g := p.graphs[graph]
	if err := p.ensure(req, g); err != nil {
		return err
	}
	w := p.tr.begin(req, "wal.append")
	_, err = g.log.Append(ds...)
	p.tr.end(w)
	if err != nil {
		return err
	}
	if err := p.rebuild(req, g, ds); err != nil {
		return err
	}
	span := ds[0].Interval
	for _, x := range ds[1:] {
		span = span.Union(x.Interval)
	}
	inv := p.tr.begin(req, "qcache.invalidate")
	for tag, e := range g.deps {
		if tag == "full" || e.iv.IsEmpty() || e.iv.Overlaps(span) {
			p.cache.InvalidatePrefix(fmt.Sprintf("%s|%s|v%d|", g.name, tag, e.version))
			e.version++
			g.deps[tag] = e
		}
	}
	p.tr.end(inv)
	return p.maintain(req, g, ds)
}

// rebuild mirrors serve's in-memory apply: every state plus the batch
// through NewVE, then conversion to the served representation.
func (p *replayer) rebuild(req int, g *rgraph, ds []wal.Delta) error {
	rb := p.tr.begin(req, "core.rebuild")
	defer p.tr.end(rb)
	vs := append([]core.VertexTuple(nil), g.g.VertexStates()...)
	es := append([]core.EdgeTuple(nil), g.g.EdgeStates()...)
	for _, d := range ds {
		if vt, ok := d.VertexTuple(); ok {
			vs = append(vs, vt)
		} else if et, ok := d.EdgeTuple(); ok {
			es = append(es, et)
		}
	}
	nv := p.tr.begin(req, "core.newve")
	ve := core.NewVE(g.g.Context(), vs, es)
	p.tr.end(nv)
	if g.rep == core.RepVE {
		g.g = ve
		return nil
	}
	cv := p.tr.begin(req, "core.convert")
	ng, err := core.Convert(ve, g.rep)
	p.tr.end(cv)
	if err != nil {
		return err
	}
	g.g = ng
	return nil
}

// maintain mirrors serve's view maintenance: build or patch each
// registered view, re-encode its result and patch the cache entry.
func (p *replayer) maintain(req int, g *rgraph, ds []wal.Delta) error {
	if len(g.views) == 0 {
		return nil
	}
	m := p.tr.begin(req, "incr.maintain")
	defer p.tr.end(m)
	canons := make([]string, 0, len(g.views))
	for c := range g.views {
		canons = append(canons, c)
	}
	sort.Strings(canons)
	for _, canon := range canons {
		sl := g.views[canon]
		if sl.disabled {
			continue
		}
		if sl.view == nil {
			b := p.tr.begin(req, "incr.build")
			var err error
			if sl.az != nil {
				sl.view, err = incr.NewAZoomView(g.g, *sl.az, incr.Options{})
			} else {
				var wv *incr.WZoomView
				if wv, err = incr.NewWZoomView(g.g, *sl.wz, incr.Options{}); err == nil && wv.ChangeSensitive() {
					err = incr.ErrUnsupported
				} else if err == nil {
					sl.view = wv
				}
			}
			p.tr.end(b)
			if err != nil {
				sl.view, sl.disabled = nil, true
				continue
			}
		} else {
			a := p.tr.begin(req, "incr.apply")
			_, err := sl.view.Apply(ds)
			p.tr.end(a)
			if err != nil {
				sl.view = nil
				continue
			}
		}
		enc := p.tr.begin(req, "incr.encode")
		vs, es := sl.view.Result()
		var rg core.TGraph = core.NewVE(g.g.Context(), vs, es)
		var err error
		if g.rep != core.RepVE {
			rg, err = core.Convert(rg, g.rep)
		}
		var body []byte
		if err == nil {
			body, err = encodeGraph(rg)
		}
		p.tr.end(enc)
		if err != nil {
			sl.view = nil
			continue
		}
		e := g.deps["full"]
		g.deps["full"] = e
		key := fmt.Sprintf("%s|full|v%d|%s", g.name, e.version, qcache.Key(g.stamp, canon))
		pt := p.tr.begin(req, "qcache.patch")
		p.cache.Patch(key, body, int64(len(body)))
		p.tr.end(pt)
	}
	return nil
}

// allocs counts heap allocations of one call of f, after a warm-up
// call, the way testing.AllocsPerRun does for a single run.
func allocs(f func() error) (uint64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

// zoomAllocs measures allocations of one fixed aZoom and one fixed
// wZoom over the primary graph, on a single caller.
func (p *replayer) zoomAllocs(primary, groupBy, count string) (az, wz uint64, err error) {
	g := p.graphs[primary]
	spec := core.GroupByProperty(groupBy, groupBy+"-group", props.Count(count))
	w, _ := temporal.ParseWindowSpec("3 units")
	wspec := core.WZoomSpec{Window: w, VQuant: temporal.Exists(), EQuant: temporal.Exists(),
		VResolve: props.ResolveSpec{Default: props.ResolveLast}, EResolve: props.ResolveSpec{Default: props.ResolveLast}}
	run := func(zoom func(core.TGraph) (core.TGraph, error)) func() error {
		return func() error {
			ctx := dataflow.NewContext(dataflow.WithParallelism(p.par))
			defer ctx.Close()
			rb, err := core.Rebind(g.g, ctx)
			if err != nil {
				return err
			}
			_, err = zoom(rb)
			return err
		}
	}
	if az, err = allocs(run(func(t core.TGraph) (core.TGraph, error) { return t.AZoom(spec) })); err != nil {
		return 0, 0, err
	}
	wz, err = allocs(run(func(t core.TGraph) (core.TGraph, error) { return t.WZoom(wspec) }))
	return az, wz, err
}
