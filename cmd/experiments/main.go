// Command experiments regenerates every table and figure of the paper's
// evaluation (section 6) against the benchmark suite:
//
//	experiments -fig 11a   paths per state, with and without pruning
//	experiments -fig 11b   determinacy time, pruning on vs off
//	experiments -fig 11c   determinacy time, commutativity on vs off
//	experiments -fig 12    idempotence-check time on verified manifests
//	experiments -fig 13    scalability with n mutually-conflicting packages
//	experiments -bugs      bug-finding summary ("Bugs found" paragraph)
//	experiments            all of the above
//
// The -timeout flag stands in for the paper's 10-minute limit (default
// 10s: the deliberately-crippled configurations blow up factorially, so a
// small limit shows the same shape quickly). The data behind each table is
// computed by internal/experiments; EXPERIMENTS.md records paper-vs-
// measured shapes. -cpuprofile and -memprofile write pprof profiles of
// whatever subset of the experiments ran. Performance of the tool itself
// is measured natively by the separate perfbench module (see
// BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 11a, 11b, 11c, 12, 13 (default: all)")
	bugs := flag.Bool("bugs", false, "print the bug-finding summary only")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	timeout := flag.Duration("timeout", 10*time.Second, "per-check timeout (paper: 10 minutes)")
	maxN := flag.Int("max-n", 6, "largest n for figure 13")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // report live allocations, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	switch {
	case *bugs:
		printBugs(*timeout)
	case *fig == "":
		printFig11a(*timeout)
		printFig11b(*timeout)
		printFig11c(*timeout)
		printFig12(*timeout)
		printFig13(*timeout, *maxN)
		printBugs(*timeout)
	case *fig == "11a":
		printFig11a(*timeout)
	case *fig == "11b":
		printFig11b(*timeout)
	case *fig == "11c":
		printFig11c(*timeout)
	case *fig == "12":
		printFig12(*timeout)
	case *fig == "13":
		printFig13(*timeout, *maxN)
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
	os.Exit(1)
}

func fmtTime(d time.Duration, timedOut bool) string {
	if timedOut {
		return "TIMEOUT"
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func printFig11a(timeout time.Duration) {
	rows, err := experiments.Fig11a(timeout)
	if err != nil {
		fatal(err)
	}
	fmt.Println("== Figure 11a: paths per state (pruned vs unpruned) ==")
	fmt.Printf("%-18s %10s %10s\n", "benchmark", "unpruned", "pruned")
	for _, r := range rows {
		if r.TimedOut {
			fmt.Printf("%-18s %10s %10s\n", r.Name, "-", "TIMEOUT")
			continue
		}
		fmt.Printf("%-18s %10d %10d\n", r.Name, r.Unpruned, r.Pruned)
	}
	fmt.Println()
}

func printTimeRows(title, offLabel, onLabel string, rows []experiments.TimeRow) {
	fmt.Println(title)
	fmt.Printf("%-18s %10s %10s\n", "benchmark", offLabel, onLabel)
	for _, r := range rows {
		fmt.Printf("%-18s %10s %10s\n", r.Name,
			fmtTime(r.Off, r.OffTimeout), fmtTime(r.On, r.OnTimeout))
	}
	fmt.Println()
}

func printFig11b(timeout time.Duration) {
	rows, err := experiments.Fig11b(timeout)
	if err != nil {
		fatal(err)
	}
	printTimeRows("== Figure 11b: determinacy time, pruning off vs on (commutativity on) ==",
		"no-prune", "prune", rows)
}

func printFig11c(timeout time.Duration) {
	rows, err := experiments.Fig11c(timeout)
	if err != nil {
		fatal(err)
	}
	printTimeRows("== Figure 11c: determinacy time, commutativity off vs on (pruning off) ==",
		"no-commut", "commut", rows)
}

func printFig12(timeout time.Duration) {
	rows, err := experiments.Fig12(timeout)
	if err != nil {
		fatal(err)
	}
	fmt.Println("== Figure 12: idempotence-check time (verified manifests) ==")
	fmt.Printf("%-18s %10s %12s\n", "benchmark", "time", "idempotent")
	for _, r := range rows {
		if r.TimedOut {
			fmt.Printf("%-18s %10s %12s\n", r.Name, "TIMEOUT", "-")
			continue
		}
		fmt.Printf("%-18s %10s %12v\n", r.Name, fmtTime(r.Time, false), r.Idempotent)
	}
	fmt.Println()
}

func printFig13(timeout time.Duration, maxN int) {
	rows, err := experiments.Fig13(timeout, maxN)
	if err != nil {
		fatal(err)
	}
	fmt.Println("== Figure 13: time vs number of conflicting resources ==")
	fmt.Printf("%4s %12s %12s\n", "n", "time", "sequences")
	for _, r := range rows {
		if r.TimedOut {
			fmt.Printf("%4d %12s %12s\n", r.N, "TIMEOUT", "-")
			continue
		}
		verdict := "det"
		if !r.Deterministic {
			verdict = "nondet"
		}
		fmt.Printf("%4d %12s %12d   (%s)\n", r.N, fmtTime(r.Time, false), r.Sequences, verdict)
	}
	fmt.Println()
}

func printBugs(timeout time.Duration) {
	rows, err := experiments.Bugs(timeout)
	if err != nil {
		fatal(err)
	}
	fmt.Println("== Bugs found (section 6) ==")
	fmt.Printf("%-18s %14s %22s\n", "benchmark", "deterministic", "fix verifies (det+idem)")
	found := 0
	for _, r := range rows {
		switch {
		case r.TimedOut:
			fmt.Printf("%-18s %14s\n", r.Name, "TIMEOUT")
		case r.Deterministic:
			fmt.Printf("%-18s %14s %22s\n", r.Name, "yes", "-")
		default:
			found++
			verifies := "no"
			if r.FixVerifies {
				verifies = "yes"
			}
			fmt.Printf("%-18s %14s %22s\n", r.Name, "NO", verifies)
		}
	}
	fmt.Printf("\n%d of %d benchmarks have determinism bugs (paper: 6 of 13)\n\n", found, len(rows))
}
