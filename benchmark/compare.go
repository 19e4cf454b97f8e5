package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// resultFile is what a run (or a set of runs) leaves on disk: the stamp plus
// every result, in the order measured.
type resultFile struct {
	Env  envBlock `json:"env"`
	Runs []result `json:"runs"`
}

func (f resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// values collects one metric's value from every run of a workload.
func (f resultFile) values(workload string, traced bool, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Traced == traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// Verdicts on one end-to-end metric of one workload.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved" // run-to-run spread wider than the bound
)

// worsening is how much worse new's median is than old's, as a share of
// old's median; negative when it got better.
func worsening(d metricDef, old, new []float64) float64 {
	mo, mn := median(old), median(new)
	if d.better == "higher" {
		return (mo - mn) / mo
	}
	return (mn - mo) / mo
}

func verdict(d metricDef, old, new []float64) string {
	if spread(old) > d.bound || spread(new) > d.bound {
		return unresolved
	}
	switch w := worsening(d, old, new); {
	case w > d.bound:
		return regressed
	case w < -d.bound:
		return improved
	}
	return unchanged
}

// comparison tallies what compare found.
type comparison struct {
	verdicts       map[string]int
	countsDiffered int
}

// layerNoise is the relative change below which a per-layer time or rate is
// not listed in the diff; exact counts are listed whenever they differ.
const layerNoise = 0.05

// compare prints, per workload, a row for every end-to-end metric — both
// medians, both quartile pairs, the verdict — and then the per-layer metrics
// that moved, largest first, so a regression names its layer.
func compare(out io.Writer, old, new resultFile) (comparison, error) {
	c := comparison{verdicts: make(map[string]int)}
	if o, n := old.Env.comparable(), new.Env.comparable(); o != n {
		return c, fmt.Errorf("env blocks differ, refusing to compare:\n  old %+v\n  new %+v", o, n)
	}
	for _, w := range workloads {
		fmt.Fprintf(out, "%s\n", w.name)
		for _, d := range endToEnd {
			ov, nv := old.values(w.name, false, d.name), new.values(w.name, false, d.name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			oq1, oq3 := quartiles(ov)
			nq1, nq3 := quartiles(nv)
			v := verdict(d, ov, nv)
			c.verdicts[v]++
			fmt.Fprintf(out, "  %-22s %-4s old %.6g [%.6g, %.6g] n=%d  new %.6g [%.6g, %.6g] n=%d  %+.2f%% worse (bound %.1f%%)  %s\n",
				d.name, d.unit, median(ov), oq1, oq3, len(ov), median(nv), nq1, nq3, len(nv),
				100*worsening(d, ov, nv), 100*d.bound, v)
		}
		type row struct {
			d      metricDef
			mo, mn float64
			rel    float64
		}
		var rows []row
		for _, d := range perLayer {
			ov, nv := old.values(w.name, true, d.name), new.values(w.name, true, d.name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			mo, mn := median(ov), median(nv)
			rel := 0.0
			if mo != mn {
				rel = math.Inf(1)
				if mo != 0 {
					rel = math.Abs(mn-mo) / math.Abs(mo)
				}
			}
			if d.exact && mo != mn {
				c.countsDiffered++
			}
			if (d.exact && mo != mn) || rel >= layerNoise {
				rows = append(rows, row{d, mo, mn, rel})
			}
		}
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].rel > rows[j].rel })
		for _, r := range rows {
			note := ""
			if r.d.exact {
				note = "  exact count differs"
			}
			fmt.Fprintf(out, "    %-30s %-6s old %.6g  new %.6g  (%+.1f%%)%s\n",
				r.d.name, r.d.unit, r.mo, r.mn, 100*(r.mn-r.mo)/math.Abs(r.mo), note)
		}
	}
	fmt.Fprintf(out, "end-to-end: %d improved, %d unchanged, %d regressed, %d unresolved; per-layer exact counts that differ: %d\n",
		c.verdicts[improved], c.verdicts[unchanged], c.verdicts[regressed], c.verdicts[unresolved], c.countsDiffered)
	return c, nil
}
