package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// AllocTolerance is how much allocs/op may grow over the baseline before
// Compare flags it: 20%. Unlike the throughput gate's tolerance it is
// fixed, because alloc counts are deterministic for a fixed matrix — a
// rise past noise (GC-timing jitter on the MemStats deltas) means a code
// path started allocating.
const AllocTolerance = 0.20

// Regression is one workload that moved past a gate: throughput fell
// below it, or allocations grew above it.
type Regression struct {
	Name      string
	Metric    string // "fits/sec" or "allocs/op"
	Baseline  float64
	Current   float64
	Ratio     float64 // current / baseline
	Threshold float64 // acceptable ratio bound (min for fits/sec, max for allocs/op)
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %.2f %s vs baseline %.2f (%.0f%%, gate %.0f%%)",
		r.Name, r.Current, r.Metric, r.Baseline, 100*r.Ratio, 100*r.Threshold)
}

// Compare gates current against a baseline report: any result present in
// both whose fits/sec fell below (1 - tolerance) of the baseline, or
// whose allocs/op grew beyond (1 + AllocTolerance) of it, is a
// regression. Results only one side has are ignored (the matrix may
// grow), as are metrics the baseline never recorded (zero allocs/op).
func Compare(baseline, current *Report, tolerance float64) []Regression {
	base := make(map[string]Result, len(baseline.Results))
	for _, r := range baseline.Results {
		if r.Err == "" {
			base[r.Name] = r
		}
	}
	var regs []Regression
	floor := 1 - tolerance
	ceil := 1 + AllocTolerance
	for _, cur := range current.Results {
		b, ok := base[cur.Name]
		if !ok || cur.Err != "" {
			continue
		}
		if b.FitsPerSec > 0 {
			ratio := cur.FitsPerSec / b.FitsPerSec
			if ratio < floor {
				regs = append(regs, Regression{
					Name: cur.Name, Metric: "fits/sec",
					Baseline: b.FitsPerSec, Current: cur.FitsPerSec,
					Ratio: ratio, Threshold: floor,
				})
			}
		}
		if b.AllocsPerOp > 0 {
			ratio := float64(cur.AllocsPerOp) / float64(b.AllocsPerOp)
			if ratio > ceil {
				regs = append(regs, Regression{
					Name: cur.Name, Metric: "allocs/op",
					Baseline: float64(b.AllocsPerOp), Current: float64(cur.AllocsPerOp),
					Ratio: ratio, Threshold: ceil,
				})
			}
		}
	}
	return regs
}

// ObsOverheadTolerance is how much of a workload's throughput the
// observability layer may cost when it is ON: an "<name>-obs" spec must
// stay within 5% of its bare "<name>" twin's fits/sec. (The logger-OFF
// cost is gated separately, by the cross-report Compare against the
// pre-observability baseline.)
const ObsOverheadTolerance = 0.05

// obsSuffix names the logging-on twin of a spec: "<base>-obs".
const obsSuffix = "-obs"

// CompareObsOverhead gates observability overhead within one report:
// every result named "<base>-obs" is paired with the result named
// "<base>" from the same run, and flagged if its fits/sec fell below
// (1 - ObsOverheadTolerance) of the bare twin. Pairs with a missing or
// failed side are skipped. RunAll measures the twins in alternating
// rounds and reports each side's median, so machine noise cancels.
func CompareObsOverhead(rep *Report) []Regression {
	byName := make(map[string]Result, len(rep.Results))
	for _, r := range rep.Results {
		if r.Err == "" {
			byName[r.Name] = r
		}
	}
	var regs []Regression
	floor := 1 - ObsOverheadTolerance
	for _, cur := range rep.Results {
		base, isObs := strings.CutSuffix(cur.Name, obsSuffix)
		if cur.Err != "" || !isObs || base == "" {
			continue
		}
		bare, ok := byName[base]
		if !ok || bare.FitsPerSec <= 0 {
			continue
		}
		if ratio := cur.FitsPerSec / bare.FitsPerSec; ratio < floor {
			regs = append(regs, Regression{
				Name: cur.Name, Metric: "fits/sec (obs overhead)",
				Baseline: bare.FitsPerSec, Current: cur.FitsPerSec,
				Ratio: ratio, Threshold: floor,
			})
		}
	}
	return regs
}

// LoadReport reads a dclbench JSON report.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// WriteReport writes a dclbench JSON report (indented, trailing newline).
func WriteReport(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
