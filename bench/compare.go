package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (resultFile, error) {
	var r resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// rowSpread is a row's run-to-run spread as a share of its median: the
// quartile distance over several runs, or, for a single run, the distance
// between its slowest and fastest repetition.
func rowSpread(r e2eRow) float64 {
	if len(r.Values) >= 2 {
		return spread(r.Values)
	}
	if r.Median == 0 {
		return 0
	}
	return (r.RepMax - r.RepMin) / r.Median
}

// verdict judges one row of B against A. The metric regressed when B's
// median is worse than A's by more than the bound; when either side's
// spread is wider than the bound the row cannot be resolved either way,
// unless every run of B reads worse than every run of A.
func verdict(a, b e2eRow) string {
	if a.Median == 0 {
		return "unresolved"
	}
	worse := (b.Median - a.Median) / a.Median
	if a.Better == "higher" {
		worse = -worse
	}
	if rowSpread(a) > a.Bound || rowSpread(b) > a.Bound {
		aLo, aHi := minMax(a.Values)
		bLo, bHi := minMax(b.Values)
		apart := bLo > aHi
		if a.Better == "higher" {
			apart = bHi < aLo
		}
		if worse > a.Bound && apart {
			return "regressed"
		}
		return "unresolved"
	}
	if worse > a.Bound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per workload x end-to-end metric of two
// result files and reports whether any row regressed. Exact outputs
// (canonical_sha256, system.sim_cycles) that differ are reported, not
// failed: a model change re-baselines them on purpose.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A %s  commit %s  seed %d  runs %d\nB %s  commit %s  seed %d  runs %d\n\n",
		pathA, a.Host.Commit, a.Flags.Seed, a.Flags.Runs, pathB, b.Host.Commit, b.Flags.Seed, b.Flags.Runs)
	fmt.Fprintf(w, "%-16s %-12s %14s %8s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "A median", "A spread", "B median", "B spread", "change", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-16s missing from B\n", wa.Name)
			continue
		}
		for _, ra := range wa.EndToEnd {
			for _, rb := range wb.EndToEnd {
				if rb.Name != ra.Name {
					continue
				}
				v := verdict(ra, rb)
				regressed = regressed || v == "regressed"
				change := 0.0
				if ra.Median != 0 {
					change = (rb.Median - ra.Median) / ra.Median
				}
				fmt.Fprintf(w, "%-16s %-12s %14.6g %7.2f%% %14.6g %7.2f%% %+7.2f%% %6.0f%%  %s\n",
					wa.Name, ra.Name, ra.Median, 100*rowSpread(ra), rb.Median, 100*rowSpread(rb), 100*change, 100*ra.Bound, v)
			}
		}
		if wa.FailFrac != wb.FailFrac {
			fmt.Fprintf(w, "%-16s fail_frac %g -> %g\n", wa.Name, wa.FailFrac, wb.FailFrac)
			regressed = regressed || wb.FailFrac > wa.FailFrac
		}
		if wa.SHA != wb.SHA {
			fmt.Fprintf(w, "%-16s canonical_sha256 differs: %s -> %s\n", wa.Name, wa.SHA, wb.SHA)
		}
		inB := map[string]float64{}
		for _, lb := range wb.PerLayer {
			inB[lb.Name] = lb.Value
		}
		for _, la := range wa.PerLayer {
			exact := la.Name == "system.sim_cycles" || la.Name == "exp.fig6_paper_err"
			if vb, ok := inB[la.Name]; exact && ok && vb != la.Value {
				fmt.Fprintf(w, "%-16s %s differs: %g -> %g\n", wa.Name, la.Name, la.Value, vb)
			}
		}
	}
	return regressed, nil
}
