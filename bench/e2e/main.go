// Command e2e is the repo's end-to-end benchmark: one workload per
// process, every metric printed by name with its unit, outputs checked.
//
//	go run ./e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//	go run ./e2e --compare A.json B.json
//	go run ./e2e --ledger FILE | --aa FILE
//
// See ../README.md for what the workloads and metrics mean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

const (
	churnName = "control-churn"
	// defaultSeed is the seed the ledger is kept on; heldOutSeed is the
	// one a perf claim must also hold on and nobody tunes against.
	defaultSeed = 11
	heldOutSeed = 23
	// defaultSeconds matches run_seconds in BENCHMARK.json.
	defaultSeconds = 25
)

func workloadNames() []string {
	var names []string
	for _, s := range simSpecs {
		names = append(names, s.name)
	}
	return append(names, churnName)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
		seed     = flag.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", defaultSeconds, "how long the run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut = flag.String("trace-out", "", "with --trace 1: write the first traced unit's spans to this file (Chrome trace JSON)")
		compare  = flag.Bool("compare", false, "compare two ledger files given as arguments: A.json B.json")
		ledger   = flag.String("ledger", "", "run every workload on both seeds and write the ledger to this file")
		aa       = flag.String("aa", "", "run every workload as two alternating sets of runs of this binary, write the comparison to this file, fail on a breach")
	)
	flag.Parse()
	// One driver goroutine does the work; the second core is for the
	// runtime (GC) and, on control-churn, the two clients.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("--compare needs two ledger files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *ledger != "":
		os.Exit(writeLedger(*ledger, *seconds))
	case *aa != "":
		os.Exit(runAA(*aa, *seconds))
	}

	if *seconds < 1 {
		fatal("--seconds must be at least 1")
	}
	var res *Result
	if spec, ok := simSpecByName(*workload); ok {
		if *traceOut != "" && *trace != 1 {
			fatal("--trace-out needs --trace 1")
		}
		res = runSim(spec, *seed, *seconds, *trace == 1, *traceOut)
	} else if *workload == churnName {
		if *traceOut != "" {
			fatal("--trace-out: %s has no event spans (the fleet service builds its own engine)", churnName)
		}
		res = runControlChurn(*seed, *seconds, *trace == 1)
	} else {
		fatal("unknown workload %q; have %v", *workload, workloadNames())
	}
	res.print()
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2e: "+format+"\n", args...)
	os.Exit(2)
}

// print writes every metric by name with its unit, then, as the last
// line, the one JSON object the benchmark driver reads.
func (r *Result) print() {
	fmt.Printf("# %s seed=%d seconds=%d traced=%v go=%s gomaxprocs=%d num_cpu=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, f := range r.Failures {
		fmt.Printf("# FAILED: %s\n", f)
	}
	for _, d := range r.decls {
		m := r.Metrics[d.Name]
		fmt.Printf("%-30s %16.9g %-6s", d.Name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Printf("  median of %d (p25 %.6g, p75 %.6g)", m.N, m.P25, m.P75)
		}
		fmt.Println()
	}
	out := wireResult{r.Correct, r.Attempted, r.Failed, map[string]wireMetric{}}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out.Metrics[name] = wireMetric{r.Metrics[name].Value, r.Metrics[name].Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal("encode result: %v", err)
	}
	fmt.Println(string(line))
}
