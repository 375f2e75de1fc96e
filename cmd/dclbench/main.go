// Command dclbench runs the deterministic benchmark matrix of
// internal/bench — direct hmm/mmhd EM fits, the windowed streaming
// pipeline, and a multi-session monitor load test — and writes a
// machine-readable JSON report plus a human-readable summary table.
//
// Usage:
//
//	dclbench [-quick] [-out BENCH_pr7.json] [-baseline BENCH_baseline.json] [-tolerance 0.2]
//
// With -baseline, the run is additionally gated: if any workload's
// fits/sec falls more than -tolerance below the baseline report, or its
// allocs/op grows more than bench.AllocTolerance (20%) above it, dclbench
// prints the regressions and exits 1 (the CI contract). Every run also
// self-gates observability overhead: the logging-on monitor specs
// ("monitor/s4-obs") must stay within bench.ObsOverheadTolerance (5%) of
// their bare twins. The twins run in bench.TwinRounds alternating rounds
// within the run and the gate compares their medians.
//
// Regenerate the published numbers with:
//
//	go run ./cmd/dclbench -out BENCH_pr7.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"text/tabwriter"
	"time"

	"dominantlink/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dclbench: ")
	var (
		quick     = flag.Bool("quick", false, "run the reduced CI matrix instead of the full one")
		out       = flag.String("out", "", "write the JSON report to this file")
		baseline  = flag.String("baseline", "", "gate fits/sec and allocs/op against this baseline report")
		tolerance = flag.Float64("tolerance", 0.2, "allowed fractional fits/sec regression vs -baseline")
	)
	flag.Parse()

	specs := bench.DefaultSpecs()
	if *quick {
		specs = bench.QuickSpecs()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	started := time.Now()
	results := bench.RunAll(ctx, specs, func(r bench.Result) {
		if r.Err != "" {
			log.Printf("%-24s FAILED: %s", r.Name, r.Err)
			return
		}
		log.Printf("%-24s %8.2f fits/sec  p50 %7.1fms  p99 %7.1fms", r.Name, r.FitsPerSec, r.P50Ms, r.P99Ms)
	})
	if err := ctx.Err(); err != nil {
		log.Fatalf("interrupted: %v", err)
	}
	rep := bench.NewReport(started, results)

	fmt.Println()
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "name\tworkload\tops\tns/op\tallocs/op\tbytes/op\tfits/sec\tp50 ms\tp99 ms")
	failed := 0
	for _, r := range rep.Results {
		if r.Err != "" {
			failed++
			fmt.Fprintf(tw, "%s\t%s\tERROR: %s\n", r.Name, r.Workload, r.Err)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%.2f\t%.1f\t%.1f\n",
			r.Name, r.Workload, r.Ops, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, r.FitsPerSec, r.P50Ms, r.P99Ms)
	}
	tw.Flush()
	fmt.Printf("\n%s %s/%s, %d CPUs, %s total\n", rep.GoVersion, rep.GOOS, rep.GOARCH, rep.NumCPU, time.Since(started).Round(time.Millisecond))

	if *out != "" {
		if err := bench.WriteReport(*out, rep); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", *out)
	}
	if failed > 0 {
		log.Fatalf("%d workload(s) failed", failed)
	}
	// Observability overhead is gated within this run: logging-on monitor
	// specs ("monitor/s4-obs") must stay within bench.ObsOverheadTolerance
	// of their bare twins, median against median over alternating rounds.
	// Same-run pairing, so no baseline file is needed.
	if regs := bench.CompareObsOverhead(rep); len(regs) > 0 {
		for _, reg := range regs {
			log.Printf("REGRESSION %s", reg)
		}
		os.Exit(1)
	}
	if *baseline != "" {
		base, err := bench.LoadReport(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		regs := bench.Compare(base, rep, *tolerance)
		if len(regs) > 0 {
			for _, reg := range regs {
				log.Printf("REGRESSION %s", reg)
			}
			os.Exit(1)
		}
		log.Printf("no regressions vs %s (tolerance %.0f%%)", *baseline, 100**tolerance)
	}
}
