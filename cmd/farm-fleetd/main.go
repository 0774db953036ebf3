// farm-fleetd is the long-lived FARM fleet daemon: it boots an emulated
// data-center fabric, runs background traffic, keeps an active/standby
// pair of control replicas over the seeder, and exposes two operator
// surfaces against the live fabric —
//
//   - an HTTP API (-http) with /healthz, /metrics, /tasks, /failover,
//     /drain for monitoring and orchestration, and
//   - the length-prefixed TCP RPC (-rpc) that farmctl's
//     submit/retire/status client mode speaks.
//
// Tasks come from the built-in Tab. I catalogue and go through the full
// compile → analyze → place → install pipeline of the seeder, with the
// warm-start incremental replan on every change. SIGINT/SIGTERM drains
// and stops the service, then self-checks for goroutine leaks.
//
// Examples:
//
//	farm-fleetd                          # 2×4 spine-leaf, default ports
//	farm-fleetd -fattree 4               # k=4 fat-tree fabric
//	farm-fleetd -leaves 8 -traffic=false # bigger fabric, no synthetic load
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"farm/internal/fleet"
)

func main() {
	fattree := flag.Int("fattree", 0, "build a k-ary fat-tree fabric (0 = spine-leaf)")
	spines := flag.Int("spines", 2, "spine switches (spine-leaf only)")
	leaves := flag.Int("leaves", 4, "leaf switches (spine-leaf only)")
	hosts := flag.Int("hosts", 8, "hosts per leaf (spine-leaf only)")
	httpAddr := flag.String("http", "127.0.0.1:7343", "HTTP operator API address (empty = off)")
	rpcAddr := flag.String("rpc", "127.0.0.1:7344", "TCP RPC address (empty = off)")
	traffic := flag.Bool("traffic", true, "run the synthetic background traffic cocktail")
	trafficSeed := flag.Int64("traffic-seed", 1, "background traffic RNG seed")
	hbInterval := flag.Duration("hb-interval", 50*time.Millisecond, "leader heartbeat interval (engine time)")
	hbTimeout := flag.Duration("hb-timeout", 0, "heartbeat timeout before standby takeover (0 = 5× interval)")
	reopt := flag.Duration("reoptimize", 0, "periodic full-replan interval (0 = off)")
	flag.Parse()

	cfg := fleet.Config{
		FatTreeK:           *fattree,
		Spines:             *spines,
		Leaves:             *leaves,
		HostsPerLeaf:       *hosts,
		Traffic:            *traffic,
		TrafficSeed:        *trafficSeed,
		HeartbeatInterval:  *hbInterval,
		HeartbeatTimeout:   *hbTimeout,
		ReoptimizeInterval: *reopt,
		HTTPAddr:           *httpAddr,
		RPCAddr:            *rpcAddr,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}

	// Register the signal watcher before taking the goroutine baseline:
	// signal.Notify lazily starts a watcher goroutine that (by design)
	// never exits, and the leak check below must not count it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	time.Sleep(10 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	svc, err := fleet.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}
	if err := svc.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}
	fmt.Printf("fleetd: up — http=%s rpc=%s fabric=%s\n",
		svc.HTTPAddr(), svc.RPCAddr(), svc.FabricDesc())

	got := <-sig
	fmt.Printf("fleetd: %v — draining and stopping\n", got)
	signal.Stop(sig)

	svc.Drain()
	if err := svc.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "fleetd: stop:", err)
		os.Exit(1)
	}

	// Goroutine-leak self-check: everything the service started must be
	// gone. Allow a few settle retries for netpoll/GC helpers to unwind.
	leaked := 0
	for i := 0; i < 50; i++ {
		leaked = runtime.NumGoroutine() - baseline
		if leaked <= 0 {
			fmt.Println("fleetd: shutdown clean")
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "fleetd: %d goroutine(s) leaked after shutdown\n", leaked)
	buf := make([]byte, 1<<20)
	os.Stderr.Write(buf[:runtime.Stack(buf, true)])
	os.Exit(1)
}
