// Command servebench is the repository's serving benchmark. It starts
// the real serve.Server with tgraph-serve's default settings, drives
// its Handler in-process from closed-loop clients (no sockets), checks
// every response, and prints the end-to-end metrics of one workload;
// with --trace 1 it also replays the run's operations through each
// layer's public functions under spans and prints per-layer metrics.
//
//	servebench --workload explore-cold --seed 1 --seconds 30 --trace 0
//	servebench compare parent.jsonl change.jsonl
//
// The last line of standard output is the result object; the lines
// before it are a readable report and the run's provenance. See
// README.md for the workloads, metrics and predictions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// serveTimeout is tgraph-serve's default per-request timeout.
const serveTimeout = 30 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	work     string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: explore-cold | live-ingest")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (datasets and request streams)")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the timed loop in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced replay and prints per-layer metrics")
	flag.StringVar(&o.out, "out", "", "append the full result record (with provenance) to this JSON-lines file")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for datasets and traces")
	flag.Parse()
	o.trace = trace == 1
	if err := mainErr(o); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func mainErr(o options) error {
	wl, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	r, err := newRun(o, wl)
	if err != nil {
		return err
	}
	defer os.RemoveAll(r.root)
	if err := r.execute(); err != nil {
		return err
	}
	// The result line carries the mode's metrics: end-to-end untraced,
	// per-layer traced. A traced run's timed loop is the untraced one,
	// so its --out record carries both.
	vals := r.endToEnd()
	if o.trace {
		vals = r.perLayer()
	}
	res := r.result(vals)
	for _, line := range r.report() {
		fmt.Println("# " + line)
	}
	prov, err := json.Marshal(r.provenance())
	if err != nil {
		return err
	}
	fmt.Println("# provenance " + string(prov))
	if o.out != "" {
		all := r.endToEnd()
		if o.trace {
			all = append(all, r.perLayer()...)
		}
		if err := appendRecord(o.out, r, r.result(all)); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.failures > 0 {
		return fmt.Errorf("%d correctness failures: %s", r.failures, strings.Join(r.failMsgs, "; "))
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an --out results file: the result plus what a
// comparison needs to refuse mismatched runs.
type record struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Trace      bool       `json:"trace"`
	Provenance provenance `json:"provenance"`
	result
}

func appendRecord(path string, r *run, res result) error {
	b, err := json.Marshal(record{Workload: r.opts.workload, Seed: r.opts.seed, Trace: r.opts.trace, Provenance: r.provenance(), result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// failf records a correctness failure, keeping the first few messages.
func (r *run) failf(format string, args ...any) {
	r.failures++
	if len(r.failMsgs) < 8 {
		r.failMsgs = append(r.failMsgs, fmt.Sprintf(format, args...))
	}
}
