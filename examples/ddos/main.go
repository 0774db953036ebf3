// DDoS mitigation: the management side of M&M. A DDoS task's seeds
// probe SYN packets on every switch; the switch nearest the attack
// detects it, installs a drop rule locally (quenching the flood without
// any controller round trip), and reports the victim to the harvester,
// which coordinates network-wide blocking and later lifts it.
//
//	go run ./examples/ddos
package main

import (
	"fmt"
	"log"
	"time"

	"farm/internal/core"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/harvest"
	"farm/internal/netmodel"
	"farm/internal/seeder"
	"farm/internal/soil"
	"farm/internal/tasks"
	"farm/internal/traffic"
)

func main() {
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: 2, Leaves: 4, HostsPerLeaf: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	loop := engine.NewSerial()
	fab := fabric.New(topo, loop, fabric.Options{})
	sd := seeder.New(fab, seeder.Options{})

	// Harvester: collect attack reports; after the attack subsides,
	// broadcast an unblock so seeds lift their drop rules.
	var victims []string
	logic := harvest.FuncLogic{
		Message: func(ctx harvest.Context, from soil.SeedRef, v core.Value) {
			victim, ok := v.(string)
			if !ok {
				return
			}
			victims = append(victims, victim)
			fmt.Printf("[%8v] harvester: %s reports DDoS on %s -> coordinating block\n",
				ctx.Now(), from.Switch, victim)
		},
	}
	d, err := tasks.ByName("ddos")
	if err != nil {
		log.Fatal(err)
	}
	if err := sd.AddTask(seeder.TaskSpec{
		Name: "ddos", Source: d.Source, Machines: d.Machines,
		Externals: d.DefaultExternals,
		Harvester: logic,
	}); err != nil {
		log.Fatal(err)
	}

	// Launch a 6-source SYN flood against a host on leaf0.
	gen := traffic.NewGenerator(fab, 1)
	victim := fabric.HostIP(0, 0)
	fmt.Printf("launching SYN flood against %v\n", victim)
	stopAttack := gen.SYNFlood(victim, 6, 8000)

	loop.RunFor(2 * time.Second)
	stopAttack()

	fmt.Printf("\nattack reports: %d (victim %s)\n", len(victims), victims[0])
	fmt.Printf("packets dropped in-fabric by local reactions: %d\n", fab.DroppedInFabric())

	// Show where the mitigation rules landed.
	fmt.Println("drop rules installed by seeds:")
	for _, sw := range topo.Switches() {
		for _, r := range fab.Switch(sw.ID).TCAM().Rules() {
			fmt.Printf("  %-8s prio=%d %s -> %s\n", sw.Name, r.Priority, r.Filter, r.Action)
		}
	}

	// The harvester lifts the block network-wide once the attack ends.
	fmt.Println("\nattack over: harvester broadcasts unblock")
	if err := sd.BroadcastToTask("ddos", "DDoS", victims[0]); err != nil {
		log.Fatal(err)
	}
	loop.RunFor(100 * time.Millisecond)
	rules := 0
	for _, sw := range topo.Switches() {
		rules += len(fab.Switch(sw.ID).TCAM().Rules())
	}
	fmt.Printf("remaining mitigation rules after unblock: %d\n", rules)
}
