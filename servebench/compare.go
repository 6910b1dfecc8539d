package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchFile is the part of BENCHMARK.json the compare mode reads.
type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// machine is the provenance both sides must share to be comparable.
func machine(p provenance) string {
	return fmt.Sprintf("NumCPU=%d GOMAXPROCS=%d %s %s/%s seconds=%d", p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.GOOS, p.GOARCH, p.Seconds)
}

// compareMain reads two result sets written with --out (parent and
// change) and prints, per workload and metric, each side's median and
// quartiles, the pairs the change won, and a verdict against the
// bounds in BENCHMARK.json. It refuses (exit 2) results from different
// machines or settings, and parent runs that failed the correctness
// check. It exits 1 when a change run failed that check, when the
// change's requests failed more often than the parent's, or when an
// end-to-end metric regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: servebench compare [-benchmark BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench compare:", err)
		return 2
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "servebench compare:", err)
		return 2
	}
	sides := [2][]record{}
	for i, path := range fs.Args() {
		if sides[i], err = readRecords(path); err != nil {
			fmt.Fprintln(os.Stderr, "servebench compare:", err)
			return 2
		}
	}
	machines := map[string]bool{}
	for _, side := range sides {
		for _, rec := range side {
			machines[machine(rec.Provenance)] = true
		}
	}
	if len(machines) > 1 {
		fmt.Println("refusing to compare: the results come from different machines or settings:")
		for m := range machines {
			fmt.Println("  " + m)
		}
		return 2
	}
	regressed := false
	for i, side := range sides {
		for _, rec := range side {
			if rec.Correct {
				continue
			}
			fmt.Printf("%s run of %s seed %d failed the correctness check\n", [2]string{"parent", "change"}[i], rec.Workload, rec.Seed)
			if i == 0 {
				fmt.Println("refusing to compare against an incorrect parent")
				return 2
			}
			regressed = true
		}
	}
	workloadSet := map[string]bool{}
	for _, side := range sides {
		for _, rec := range side {
			workloadSet[rec.Workload] = true
		}
	}
	var names []string
	for w := range workloadSet {
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Printf("%-14s %-36s %-10s %28s %28s %7s  %s\n", "workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, w := range names {
		// A gain does not count when more operations fail.
		pf, pa := failedShare(sides[0], w)
		cf, ca := failedShare(sides[1], w)
		verdict := "unchanged"
		if float64(cf)*float64(pa) > float64(pf)*float64(ca) {
			verdict, regressed = "regressed", true
		}
		fmt.Printf("%-14s %-36s %-10s %28s %28s %7s  %s\n", w, "failed/attempted", "count",
			fmt.Sprintf("%d/%d", pf, pa), fmt.Sprintf("%d/%d", cf, ca), "", verdict)
		for _, group := range []struct {
			metrics []benchMetric
			gated   bool
		}{{bf.EndToEnd, true}, {bf.PerLayer, false}} {
			for _, m := range group.metrics {
				p, pSeeds := sideValues(sides[0], w, m.Name)
				c, cSeeds := sideValues(sides[1], w, m.Name)
				if len(p) == 0 || len(c) == 0 {
					continue
				}
				won, pairs := pairsWon(p, pSeeds, c, cSeeds, m.Better)
				verdict := "info"
				if group.gated {
					verdict = judge(p, c, m, won, pairs)
					regressed = regressed || verdict == "regressed"
				}
				pq1, pmed, pq3 := quartiles(p)
				cq1, cmed, cq3 := quartiles(c)
				fmt.Printf("%-14s %-36s %-10s %28s %28s %7s  %s\n", w, m.Name, m.Unit,
					fmt.Sprintf("%.4g [%.4g, %.4g]", pmed, pq1, pq3), fmt.Sprintf("%.4g [%.4g, %.4g]", cmed, cq1, cq3),
					fmt.Sprintf("%d/%d", won, pairs), verdict)
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// failedShare sums a workload's failed and attempted requests.
func failedShare(recs []record, workload string) (failed, attempted int) {
	for _, rec := range recs {
		if rec.Workload == workload {
			failed, attempted = failed+rec.Failed, attempted+rec.Attempted
		}
	}
	return failed, attempted
}

// sideValues returns the metric's values for a workload with the seed
// of each run, in file order.
func sideValues(recs []record, workload, name string) (vals []float64, seeds []int64) {
	for _, rec := range recs {
		if rec.Workload != workload {
			continue
		}
		if m, ok := rec.Metrics[name]; ok {
			vals, seeds = append(vals, m.Value), append(seeds, rec.Seed)
		}
	}
	return vals, seeds
}

func better(a, b float64, dir string) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// pairsWon pairs the runs of both sides by seed (in file order within a
// seed) and counts the pairs the change won; ties count for neither.
func pairsWon(p []float64, pSeeds []int64, c []float64, cSeeds []int64, dir string) (won, pairs int) {
	used := make([]bool, len(c))
	for i, pv := range p {
		for j, cv := range c {
			if used[j] || cSeeds[j] != pSeeds[i] {
				continue
			}
			used[j] = true
			pairs++
			if better(cv, pv, dir) {
				won++
			}
			break
		}
	}
	return won, pairs
}

// judge applies the benchmark's rule to one gated metric: regressed
// when the change's median is worse than the parent's by more than the
// bound; unresolved when the parent's own spread exceeds the bound
// (unless every change run beats every parent run); improved only when
// the change wins nine tenths of the pairs and the medians differ by
// more than the parent's quartile spread; unchanged otherwise.
func judge(p, c []float64, m benchMetric, won, pairs int) string {
	pq1, pmed, pq3 := quartiles(p)
	_, cmed, _ := quartiles(c)
	worse := cmed > pmed*(1+m.Bound)
	if m.Better == "higher" {
		worse = cmed < pmed*(1-m.Bound)
	}
	if worse {
		return "regressed"
	}
	allBetter := true
	for _, cv := range c {
		for _, pv := range p {
			allBetter = allBetter && better(cv, pv, m.Better)
		}
	}
	if pmed != 0 && (pq3-pq1)/math.Abs(pmed) > m.Bound && !allBetter {
		return "unresolved"
	}
	if pairs > 0 && float64(won) >= 0.9*float64(pairs) && math.Abs(cmed-pmed) > pq3-pq1 && better(cmed, pmed, m.Better) {
		return "improved"
	}
	return "unchanged"
}
