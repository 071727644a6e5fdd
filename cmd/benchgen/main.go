// Command benchgen generates the synthetic benchmark suite and prints its
// vital statistics: per-design sizes, trunk-layer populations, and v-pin
// counts per split layer — the quantities that determine attack difficulty.
//
// It also owns the repository's perf baselines: -scoring-bench / -train-bench
// measure pair-scoring throughput and the train-once/score-many trade and
// write them to BENCH_scoring.json / BENCH_train.json, and -check reruns
// those measurements against the committed baselines and fails on
// regression beyond -tolerance (see check.go for what is gated exactly vs.
// by same-machine ratio). CI runs the -check gate on every push.
//
// Observability is opt-in: -v streams structured span logs to stderr
// (-log-format text|json), -report writes a JSON run report with
// per-design generation spans, -metrics dumps the metrics registry,
// -serve-obs serves live telemetry, -trace writes a Chrome trace, and
// -cpuprofile/-memprofile capture pprof profiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/layout"
	"repro/internal/route"
	"repro/internal/timing"
)

func main() {
	fs := flag.NewFlagSet("benchgen", flag.ExitOnError)
	app := cli.New("benchgen", fs)
	out := fs.String("o", "", "directory to write <design>.sml files to")
	scoringBench := fs.String("scoring-bench", "",
		"measure pair-scoring throughput (scalar oracle vs batched arena) on the generated suite and write the baseline JSON to this file, e.g. BENCH_scoring.json")
	trainBench := fs.String("train-bench", "",
		"measure cold-train vs warm artifact-load timings on the generated suite and write the baseline JSON to this file, e.g. BENCH_train.json")
	check := fs.Bool("check", false,
		"perf gate: rerun the benches and fail on regression against the committed baselines (paths from -scoring-bench/-train-bench, defaulting to BENCH_scoring.json/BENCH_train.json)")
	tolerance := fs.Float64("tolerance", 0.5,
		"-check tolerance on same-machine ratio metrics: speedups may drop to baseline*(1-t), allocation rates may grow to baseline*(1+t); exact fields always must match")
	o := app.Parse(os.Args[1:])

	if *check {
		scoringPath, trainPath := *scoringBench, *trainBench
		if scoringPath == "" {
			scoringPath = "BENCH_scoring.json"
		}
		if trainPath == "" {
			trainPath = "BENCH_train.json"
		}
		if err := runCheck(o, app.Workers(), scoringPath, trainPath, *tolerance); err != nil {
			cli.Fatal(err)
		}
		app.Finish(o, map[string]any{"check": true, "tolerance": *tolerance},
			map[string]any{"perf_gate": "pass"})
		return
	}

	suite, err := experiments.NewSuiteTier(o, app.Tier, app.Scale, app.Seed, app.Workers())
	if err != nil {
		cli.Fatal(err)
	}
	designs := suite.Designs
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			cli.Fatal(err)
		}
		for _, d := range designs {
			path := filepath.Join(*out, d.Name+".sml")
			f, err := os.Create(path)
			if err != nil {
				cli.Fatal(err)
			}
			if err := layout.Save(f, d); err != nil {
				f.Close()
				cli.Fatal(err)
			}
			f.Close()
			fmt.Printf("wrote %s\n", path)
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "design\tcells\tnets\tdie\tvpins@8\tvpins@6\tvpins@4\tmeanMatchDist@6")
	designStats := []map[string]any{}
	for di, d := range designs {
		row := fmt.Sprintf("%s\t%d\t%d\t%dx%d", d.Name,
			len(d.Netlist.Cells), len(d.Netlist.Nets), d.Die().Width(), d.Die().Height())
		stats := map[string]any{
			"name": d.Name, "cells": len(d.Netlist.Cells), "nets": len(d.Netlist.Nets),
		}
		var dist6 float64
		for _, layer := range []int{8, 6, 4} {
			chs, err := suite.Challenges(layer)
			if err != nil {
				cli.Fatal(err)
			}
			ch := chs[di]
			row += fmt.Sprintf("\t%d", len(ch.VPins))
			stats[fmt.Sprintf("vpins@%d", layer)] = len(ch.VPins)
			if layer == 6 {
				dist6 = ch.Summary().MeanMatchDist
			}
		}
		fmt.Fprintf(tw, "%s\t%.0f\n", row, dist6)
		designStats = append(designStats, stats)
	}
	tw.Flush()

	fmt.Println("\nTrunk-layer populations (nets per top metal layer):")
	tw = tabwriter.NewWriter(os.Stdout, 2, 2, 2, ' ', 0)
	fmt.Fprint(tw, "design")
	for m := 2; m <= route.NumMetal; m++ {
		fmt.Fprintf(tw, "\tM%d", m)
	}
	fmt.Fprintln(tw)
	for _, d := range designs {
		pop := d.Routing.LayerPopulation()
		fmt.Fprint(tw, d.Name)
		for m := 2; m <= route.NumMetal; m++ {
			fmt.Fprintf(tw, "\t%d", pop[m])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Printf("\nPer-layer routing utilisation (%s):\n", designs[0].Name)
	route.WriteStats(os.Stdout, designs[0].Routing.Stats())

	fmt.Println("\nStatic timing summary:")
	tw = tabwriter.NewWriter(os.Stdout, 2, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "design\tmean delay\tmax delay\toverloaded drivers")
	for _, d := range designs {
		dt := timing.Analyze(d)
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%d\n", d.Name, dt.MeanDelay, dt.MaxDelay, dt.OverloadedDrivers)
	}
	tw.Flush()

	// Both baselines measure the standard suite; the industrial tier is
	// measured once (its own suite, its own memory-bounded configuration)
	// and contributes a section to each document.
	var indScoring *industrialScoringEntry
	var indTrain *industrialTrainEntry
	if *scoringBench != "" || *trainBench != "" {
		fmt.Println("\nmeasuring industrial tier (single fold; takes a few minutes)...")
		indScoring, indTrain, err = measureIndustrial(o, app.Workers(), app.Scale, app.Seed)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("industrial %s: %d cells, %d v-pins, %d regions, peak heap %.0f MB, est. full LOO %.0fs\n",
			indScoring.Design, indScoring.Cells, indScoring.VPins, indScoring.Regions,
			float64(indScoring.PeakHeapBytes)/1e6, indScoring.EstimatedLooS)
	}
	if *scoringBench != "" {
		doc, err := measureScoring(suite)
		if err != nil {
			cli.Fatal(err)
		}
		doc.Industrial = indScoring
		if err := writeBaseline(*scoringBench, doc); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("\nwrote scoring baseline to %s\n", *scoringBench)
	}
	if *trainBench != "" {
		doc, err := measureTrain(suite)
		if err != nil {
			cli.Fatal(err)
		}
		doc.Industrial = indTrain
		if err := writeBaseline(*trainBench, doc); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("\nwrote training baseline to %s\n", *trainBench)
	}

	summary := map[string]any{"designs": designStats}
	app.Finish(o, nil, summary)
}
