// farm-bench regenerates the tables and figures of the FARM paper's
// evaluation (§VI) on the emulated data center.
//
// Usage:
//
//	farm-bench -exp all            # every experiment at quick scale
//	farm-bench -exp tab4           # one experiment
//	farm-bench -exp fig7 -full     # paper-scale grid (heuristic only; slow)
//	farm-bench -list
//
// Experiments: tab1 tab4 tab5 fig4 fig5 fig6 fig7 fig8 fig9 fig10
// ablation fleet-soak. Each prints a wall-clock elapsed line.
//
// The digest gates of the engine, the traffic generator, placement and
// the wire path are tests, not experiments:
// go test -run 'TestEngineLargeFabricPinned|TestWorkloadDigestsPinned' .
// and go test ./internal/placement ./internal/transport.
//
// -cpuprofile/-memprofile write pprof profiles covering the selected
// experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"farm/internal/experiments"
	"farm/internal/fleet"
)

type experiment struct {
	name string
	desc string
	run  func(full bool) (string, error) // the rendered output
}

// render is the run of an experiment whose result is one table.
func render[R interface{ Table() *experiments.Table }](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Table().Render(), nil
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	full := flag.Bool("full", false, "paper-scale parameters (slow)")
	list := flag.Bool("list", false, "list experiments")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments")
	memProfile := flag.String("memprofile", "", "write a heap profile after the selected experiments")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	exps := []experiment{
		{"tab1", "Tab. I: use cases implemented in Almanac", func(bool) (string, error) {
			return experiments.Tab1().Table().Render(), nil
		}},
		{"tab4", "Tab. 4: HH detection time across systems", func(bool) (string, error) {
			return render(experiments.Tab4())
		}},
		{"tab5", "Tab. V: feature matrix of generic M&M solutions", func(bool) (string, error) {
			return experiments.Tab5().Render(), nil
		}},
		{"fig4", "Fig. 4: network load toward central components", func(full bool) (string, error) {
			return render(experiments.Fig4(full))
		}},
		{"fig5", "Fig. 5: switch CPU load vs monitored flows", func(full bool) (string, error) {
			return render(experiments.Fig5(full))
		}},
		{"fig6", "Fig. 6: CPU load vs collocated seeds (HH/ML)", func(full bool) (string, error) {
			return render(experiments.Fig6(full))
		}},
		{"fig7", "Fig. 7: placement utility and runtime", func(full bool) (string, error) {
			return render(experiments.Fig7(full))
		}},
		{"fig8", "Fig. 8: PCIe bus congestion and aggregation", func(bool) (string, error) {
			return render(experiments.Fig8())
		}},
		{"fig9", "Fig. 9: soil CPU, threads vs processes", func(bool) (string, error) {
			return render(experiments.Fig9())
		}},
		{"fig10", "Fig. 10: seed<->soil transport latency", func(full bool) (string, error) {
			return render(experiments.Fig10(full))
		}},
		{"ablation", "Ablations: Alg. 1 passes, migration cost", func(bool) (string, error) {
			res, err := experiments.Ablation()
			if err != nil {
				return "", err
			}
			return res.Passes.Render() + "\n" + res.Migration.Render(), nil
		}},
		// The daemon's survivability gate (docs/fleetd.md): concurrent
		// RPC clients churn the catalogue against a live fleet service
		// while the active control replica is killed mid-run. Unlike the
		// other experiments it runs on the wall-clock engine, so elapsed
		// time is real time.
		{"fleet-soak", "Fleet soak: concurrent RPC clients + forced failover on a live fleetd", func(full bool) (string, error) {
			cfg := fleet.SoakConfig{
				Service: fleet.Config{
					Spines: 2, Leaves: 3, HostsPerLeaf: 4,
					Traffic:           true,
					HeartbeatInterval: 10 * time.Millisecond,
				},
				Clients: 8,
				Rounds:  3,
			}
			if full {
				cfg.Service.Leaves = 8
				cfg.Service.HostsPerLeaf = 8
				cfg.Clients = 16
				cfg.Rounds = 6
			}
			res, err := fleet.Soak(cfg)
			if err != nil {
				return "", err
			}
			if !res.Passed() {
				err = fmt.Errorf("fleet-soak failed: lost=%v unexpected=%v takeovers=%d",
					res.Lost, res.Unexpected, res.Takeovers)
			}
			return res.String(), err
		}},
	}
	if *list {
		for _, e := range exps {
			fmt.Printf("  %-12s %s\n", e.name, e.desc)
		}
		return
	}
	ran := 0
	for _, e := range exps {
		if *exp != "all" && !strings.EqualFold(*exp, e.name) {
			continue
		}
		ran++
		start := time.Now()
		out, err := e.run(*full)
		fmt.Print(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s finished in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *exp)
		os.Exit(1)
	}
}
