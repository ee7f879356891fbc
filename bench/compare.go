package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's statistics.quantiles(n=4)
// gives them — the measure the driver applies. Fewer than two values have
// no spread.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k float64) float64 { // exclusive method: position k*(n+1)/4, 1-based
		pos := k * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return ratio(q(3)-q(1), math.Abs(median(s)))
}

func loadSuite(path string) (suiteFile, error) {
	var f suiteFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareMain prints one row per (metric, workload) of two suite files: A is
// the parent, B the change. It exits 1 when a row regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	sameCode := fs.Bool("same-code", false, "A and B ran the same code at the same seeds: every exact in-process number must be identical")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [--same-code] A.json B.json")
		return 2
	}
	var files [2]suiteFile
	for i := range files {
		f, err := loadSuite(fs.Arg(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		files[i] = f
	}
	return compare(files[0], files[1], *sameCode)
}

func compare(a, b suiteFile, sameCode bool) int {
	bad := 0
	fmt.Printf("%-18s %-30s %14s %14s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(w.Name, d.Name, 0), b.values(w.Name, d.Name, 0)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			spread := max(quartileSpread(va), quartileSpread(vb))
			worse := ratio(mb-ma, math.Abs(ma)) // share of A's median by which B is worse
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "unchanged"
			switch {
			case spread > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				bad++
			case -worse > spread && -worse > 0:
				verdict = "improved"
			}
			fmt.Printf("%-18s %-30s %14.6g %14.6g %7.1f%% %5.0f%%  %s\n", w.Name, d.Name, ma, mb, 100*spread, 100*d.Bound, verdict)
		}
	}
	// Exact numbers: a fixed op window of a deterministic simulator repeats
	// to the last digit, so two versions compare exactly.
	for _, w := range workloads[:3] {
		for _, name := range exactLayer {
			va, vb := a.values(w.Name, name, 1), b.values(w.Name, name, 1)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict := "identical"
			if va[0] != vb[0] {
				verdict = "differs"
				if sameCode {
					bad++
				}
			}
			fmt.Printf("%-18s %-30s %14.6g %14.6g %8s %6s  %s\n", w.Name, name, va[0], vb[0], "exact", "-", verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d row(s) regressed or differ\n", bad)
		return 1
	}
	return 0
}
