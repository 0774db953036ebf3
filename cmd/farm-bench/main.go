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
	run  func(full bool) error
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
		{"tab1", "Tab. I: use cases implemented in Almanac", runTab1},
		{"tab4", "Tab. 4: HH detection time across systems", runTab4},
		{"tab5", "Tab. V: feature matrix of generic M&M solutions", runTab5},
		{"fig4", "Fig. 4: network load toward central components", runFig4},
		{"fig5", "Fig. 5: switch CPU load vs monitored flows", runFig5},
		{"fig6", "Fig. 6: CPU load vs collocated seeds (HH/ML)", runFig6},
		{"fig7", "Fig. 7: placement utility and runtime", runFig7},
		{"fig8", "Fig. 8: PCIe bus congestion and aggregation", runFig8},
		{"fig9", "Fig. 9: soil CPU, threads vs processes", runFig9},
		{"fig10", "Fig. 10: seed<->soil transport latency", runFig10},
		{"ablation", "Ablations: Alg. 1 passes, migration cost", runAblation},
		{"fleet-soak", "Fleet soak: concurrent RPC clients + forced failover on a live fleetd", runFleetSoak},
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
		if err := e.run(*full); err != nil {
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

func runTab1(bool) error {
	fmt.Print(experiments.Tab1().Table().Render())
	return nil
}

func runTab5(bool) error {
	fmt.Print(experiments.Tab5().Render())
	return nil
}

func runTab4(bool) error {
	res, err := experiments.Tab4(experiments.Tab4Config{})
	if err != nil {
		return err
	}
	fmt.Print(res.Table().Render())
	return nil
}

func runFig4(full bool) error {
	cfg := experiments.Fig4Config{}
	if !full {
		cfg.PortCounts = []int{48, 96, 240, 480}
		cfg.Duration = 8 * time.Second
		cfg.Churn = 3 * time.Second
	}
	res, err := experiments.Fig4(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Table().Render())
	return nil
}

func runFig5(full bool) error {
	cfg := experiments.Fig5Config{}
	if !full {
		cfg.FlowCounts = []int{100, 1000, 5000, 10000}
		cfg.Duration = 2 * time.Second
	}
	res, err := experiments.Fig5(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Table().Render())
	return nil
}

func runFig6(full bool) error {
	cfg := experiments.Fig6Config{}
	if !full {
		cfg.HHSeedCounts = []int{10, 40, 100}
		cfg.MLSeedCounts = []int{10, 50, 150, 250}
		cfg.Duration = time.Second
	}
	res, err := experiments.Fig6(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Table().Render())
	return nil
}

func runFig7(full bool) error {
	cfg := experiments.Fig7Config{}
	if full {
		// The paper's grid shape: 1000..10200 seeds on up to 1040
		// switches. The exact solver cannot follow; the heuristic can.
		cfg.SeedCounts = []int{1000, 4000, 7000, 10200}
		cfg.SwitchesPerSeed = 1040.0 / 10200.0
		cfg.Runs = 3
		cfg.SkipMILPAbove = 400
	}
	res, err := experiments.Fig7(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Table().Render())
	return nil
}

func runFig8(bool) error {
	res, err := experiments.Fig8(experiments.Fig8Config{})
	if err != nil {
		return err
	}
	fmt.Print(res.Table().Render())
	return nil
}

func runFig9(bool) error {
	res, err := experiments.Fig9(experiments.Fig9Config{})
	if err != nil {
		return err
	}
	fmt.Print(res.Table().Render())
	return nil
}

func runFig10(full bool) error {
	cfg := experiments.Fig10Config{}
	if !full {
		cfg.CallsPerSeed = 500
	}
	res, err := experiments.Fig10(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Table().Render())
	return nil
}

// runFleetSoak is the daemon's survivability gate (docs/fleetd.md): N
// concurrent RPC clients churn the catalogue against a live fleet
// service while the active control replica is killed mid-run. Unlike
// the other experiments it exercises the wall-clock engine, so elapsed
// time is real time.
func runFleetSoak(full bool) error {
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
		return err
	}
	fmt.Print(res)
	if !res.Passed() {
		return fmt.Errorf("fleet-soak failed: lost=%v unexpected=%v takeovers=%d",
			res.Lost, res.Unexpected, res.Takeovers)
	}
	return nil
}

func runAblation(bool) error {
	res, err := experiments.Ablation(experiments.AblationConfig{})
	if err != nil {
		return err
	}
	fmt.Print(res.Passes.Render())
	fmt.Println()
	fmt.Print(res.Migration.Render())
	return nil
}
