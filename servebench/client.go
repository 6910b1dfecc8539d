package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"time"

	"repro/internal/serve"
)

// Operation kinds and response outcomes as stored in opRec.
const (
	kindQuery uint8 = iota
	kindAppend
)

const (
	outMiss uint8 = iota
	outHit
	outShared
	outPatched
	outNone // appends carry no cache outcome
	outBad  // unknown or missing X-TGraph-Cache
)

var outcomeNames = [...]string{"miss", "hit", "shared", "patched", "none", "bad"}

func parseOutcome(h http.Header, kind uint8) uint8 {
	if kind == kindAppend {
		return outNone
	}
	// serve sets the header through Header.Set, so it is stored under
	// its canonical key; indexing directly avoids a per-request
	// canonicalisation.
	v := h["X-Tgraph-Cache"]
	if len(v) != 1 {
		return outBad
	}
	for i, name := range outcomeNames[:outNone] {
		if v[0] == name {
			return uint8(i)
		}
	}
	return outBad
}

// opRec is one completed request of the timed loop.
type opRec struct {
	start   int64 // ns since the loop started
	lat     int64 // ns inside Handler.ServeHTTP
	idx     int32 // query catalogue index, or append batch index
	size    int32 // response body bytes
	code    int16
	kind    uint8
	outcome uint8
}

// digestSeed keys every body digest of the process, so digests taken in
// the timed loop and in the restart check compare.
var digestSeed = maphash.MakeSeed()

// digest identifies one response body.
type digest struct {
	n    int
	hash uint64
}

// sink is the load generator's http.ResponseWriter. It counts body
// bytes and, when asked, hashes or captures them; it never allocates
// per body, so the generator's own cost stays flat as bodies grow.
type sink struct {
	h       http.Header
	code    int
	n       int
	hashing bool
	hash    maphash.Hash
	capture bool
	buf     []byte
}

func newSink() *sink {
	s := &sink{h: make(http.Header)}
	s.hash.SetSeed(digestSeed)
	return s
}

func (s *sink) Header() http.Header { return s.h }
func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

func (s *sink) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	s.n += len(p)
	if s.hashing {
		s.hash.Write(p)
	}
	if s.capture {
		s.buf = append(s.buf, p...)
	}
	return len(p), nil
}

func (s *sink) reset(hashing, capture bool) {
	clear(s.h)
	s.code, s.n = 0, 0
	s.hashing, s.capture = hashing, capture
	s.hash.Reset()
	s.buf = s.buf[:0]
}

func (s *sink) status() int {
	if s.code == 0 {
		return http.StatusOK
	}
	return s.code
}

// reqBody is a rewindable request body, so a client reuses one request
// per distinct query instead of allocating per call.
type reqBody struct{ bytes.Reader }

func (*reqBody) Close() error { return nil }

// client drives the server's handler in-process, one request at a time.
type client struct {
	h      http.Handler
	w      *sink
	reqs   []*http.Request // per catalogue query, built on first use
	bodies []*reqBody
}

func newClient(h http.Handler) *client { return &client{h: h, w: newSink()} }

func newPost(path string) (*http.Request, *reqBody) {
	r, err := http.NewRequest(http.MethodPost, path, nil)
	if err != nil {
		panic(err) // path is a constant of this program
	}
	b := &reqBody{}
	r.Body = b
	return r, b
}

// serve issues one request and returns its latency inside the handler.
func (c *client) serve(r *http.Request, b *reqBody, payload []byte, hashing, capture bool) time.Duration {
	b.Reset(payload)
	r.ContentLength = int64(len(payload))
	c.w.reset(hashing, capture)
	start := time.Now()
	c.h.ServeHTTP(c.w, r)
	return time.Since(start)
}

// query issues catalogue query idx and returns its record (start
// unset). hashing digests the body as it is written.
func (c *client) query(q *query, idx int, hashing bool) opRec {
	for len(c.reqs) <= idx {
		c.reqs, c.bodies = append(c.reqs, nil), append(c.bodies, nil)
	}
	if c.reqs[idx] == nil {
		c.reqs[idx], c.bodies[idx] = newPost("/v1/pipeline")
	}
	lat := c.serve(c.reqs[idx], c.bodies[idx], q.body, hashing, false)
	return opRec{lat: int64(lat), idx: int32(idx), size: int32(c.w.n), code: int16(c.w.status()),
		kind: kindQuery, outcome: parseOutcome(c.w.h, kindQuery)}
}

// lastDigest is the digest of the body the last hashing call received.
func (c *client) lastDigest() digest { return digest{n: c.w.n, hash: c.w.hash.Sum64()} }

// appendBatch posts one append and decodes its acknowledgement.
func (c *client) appendBatch(graph string, ds []serve.DeltaJSON, idx int) (opRec, serve.AppendResponse, error) {
	payload, err := json.Marshal(serve.AppendRequest{Graph: graph, Deltas: ds})
	if err != nil {
		return opRec{}, serve.AppendResponse{}, err
	}
	r, b := newPost("/v1/append")
	lat := c.serve(r, b, payload, false, true)
	rec := opRec{lat: int64(lat), idx: int32(idx), size: int32(c.w.n), code: int16(c.w.status()), kind: kindAppend, outcome: outNone}
	var ack serve.AppendResponse
	if rec.code == http.StatusOK {
		if err := json.Unmarshal(c.w.buf, &ack); err != nil {
			return rec, ack, fmt.Errorf("append ack: %w", err)
		}
	}
	return rec, ack, nil
}

// graphs fetches the server's /v1/graphs listing.
func (c *client) graphs() ([]serve.GraphInfo, error) {
	r, err := http.NewRequest(http.MethodGet, "/v1/graphs", nil)
	if err != nil {
		return nil, err
	}
	c.w.reset(false, true)
	c.h.ServeHTTP(c.w, r)
	if c.w.status() != http.StatusOK {
		return nil, fmt.Errorf("/v1/graphs: status %d", c.w.status())
	}
	var out []serve.GraphInfo
	err = json.Unmarshal(c.w.buf, &out)
	return out, err
}
