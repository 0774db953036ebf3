package tasks

import (
	"strings"
	"testing"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
	"farm/internal/seeder"
	"farm/internal/traffic"
)

// Every catalogued task must parse, compile, pass static analysis, and
// survive the XML wire format — this is the Tab. I "implemented in
// FARM" claim, mechanized.
func TestAllTasksCompileAnalyzeRoundTrip(t *testing.T) {
	all := All()
	if len(all) < 16 {
		t.Fatalf("catalogue has %d tasks, Tab. I wants >= 16", len(all))
	}
	for _, d := range all {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			prog, err := almanac.Parse(d.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			machines := d.Machines
			if machines == nil {
				for _, m := range prog.Machines {
					machines = append(machines, m.Name)
				}
			}
			for _, mn := range machines {
				cm, err := almanac.CompileMachine(prog, mn)
				if err != nil {
					t.Fatalf("compile %s: %v", mn, err)
				}
				env := map[string]almanac.Const{}
				for name, v := range d.DefaultExternals[mn] {
					if iv, ok := v.(int64); ok {
						env[name] = almanac.NumConst(float64(iv))
					}
				}
				for _, st := range cm.States {
					if _, err := almanac.AnalyzeUtility(st.Util, env); err != nil {
						t.Fatalf("utility %s.%s: %v", mn, st.Name, err)
					}
				}
				if _, err := almanac.AnalyzePolls(cm, env); err != nil {
					t.Fatalf("polls %s: %v", mn, err)
				}
				data, err := almanac.EncodeXML(cm)
				if err != nil {
					t.Fatalf("encode %s: %v", mn, err)
				}
				back, err := almanac.DecodeXML(data)
				if err != nil {
					t.Fatalf("decode %s: %v", mn, err)
				}
				again, err := almanac.EncodeXML(back)
				if err != nil {
					t.Fatalf("re-encode %s: %v", mn, err)
				}
				if string(data) != string(again) {
					t.Fatalf("%s: XML round trip not a fixed point", mn)
				}
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("hh"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected unknown-task error")
	}
	names := Names()
	if len(names) != len(All()) {
		t.Fatal("Names/All length mismatch")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("names not sorted")
		}
	}
}

// --- End-to-end detections through the full stack ---

type env struct {
	fab  *fabric.Fabric
	loop engine.Scheduler
	sd   *seeder.Seeder
	gen  *traffic.Generator
}

func newEnv(t *testing.T, leaves, hosts int) *env {
	t.Helper()
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: 1, Leaves: leaves, HostsPerLeaf: hosts})
	if err != nil {
		t.Fatal(err)
	}
	loop := engine.NewSerial()
	fab := fabric.New(topo, loop, fabric.Options{})
	return &env{
		fab:  fab,
		loop: loop,
		sd:   seeder.New(fab, seeder.Options{}),
		gen:  traffic.NewGenerator(fab, 42),
	}
}

func (e *env) deploy(t *testing.T, name string) {
	t.Helper()
	d, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec := seeder.TaskSpec{
		Name: d.Name, Source: d.Source, Machines: d.Machines,
		Externals: d.DefaultExternals,
	}
	if d.NewHarvester != nil {
		spec.Harvester = d.NewHarvester()
	}
	if err := e.sd.AddTask(spec); err != nil {
		t.Fatal(err)
	}
}

// lastReportString waits for a harvester report and returns it rendered.
func (e *env) waitReport(t *testing.T, task string, within time.Duration) (core.Value, bool) {
	t.Helper()
	h, ok := e.sd.Harvester(task)
	if !ok {
		t.Fatalf("no harvester for %s", task)
	}
	deadline := e.loop.Now() + within
	for e.loop.Now() < deadline {
		e.loop.RunFor(10 * time.Millisecond)
		if hist := h.History(); len(hist) > 0 {
			return hist[len(hist)-1].Val, true
		}
	}
	return nil, false
}

func TestDDoSDetectsAndMitigates(t *testing.T) {
	e := newEnv(t, 3, 4)
	e.deploy(t, "ddos")
	victim := fabric.HostIP(0, 0)
	stop := e.gen.SYNFlood(victim, 6, 5000)
	defer stop()
	v, ok := e.waitReport(t, "ddos", 2*time.Second)
	if !ok {
		t.Fatal("no DDoS report")
	}
	if v != victim.String() {
		t.Fatalf("reported %v, want %v", v, victim)
	}
	// Local mitigation: a drop rule for the victim exists somewhere,
	// and the fabric actually drops attack traffic.
	e.loop.RunFor(100 * time.Millisecond)
	before := e.fab.DroppedInFabric()
	e.loop.RunFor(500 * time.Millisecond)
	if e.fab.DroppedInFabric() <= before {
		t.Fatal("mitigation rule drops nothing")
	}
}

func TestPortScanDetection(t *testing.T) {
	e := newEnv(t, 2, 2)
	e.deploy(t, "port-scan")
	stop := e.gen.PortScan(fabric.HostIP(0, 0), fabric.HostIP(1, 0), 2000)
	defer stop()
	v, ok := e.waitReport(t, "port-scan", 2*time.Second)
	if !ok {
		t.Fatal("no scan report")
	}
	if v != fabric.HostIP(0, 0).String() {
		t.Fatalf("reported scanner %v", v)
	}
}

func TestSuperSpreaderDetection(t *testing.T) {
	e := newEnv(t, 4, 6)
	e.deploy(t, "superspreader")
	stop := e.gen.SuperSpreader(fabric.HostIP(0, 0), 16, 4000)
	defer stop()
	v, ok := e.waitReport(t, "superspreader", 2*time.Second)
	if !ok {
		t.Fatal("no spreader report")
	}
	if v != fabric.HostIP(0, 0).String() {
		t.Fatalf("reported %v", v)
	}
}

func TestSSHBruteForceDetection(t *testing.T) {
	e := newEnv(t, 2, 2)
	e.deploy(t, "ssh-brute")
	stop := e.gen.SSHBruteForce(fabric.HostIP(0, 1), fabric.HostIP(1, 0), 500)
	defer stop()
	v, ok := e.waitReport(t, "ssh-brute", 2*time.Second)
	if !ok {
		t.Fatal("no brute-force report")
	}
	if v != fabric.HostIP(0, 1).String() {
		t.Fatalf("reported %v", v)
	}
}

func TestDNSReflectionDetection(t *testing.T) {
	e := newEnv(t, 3, 4)
	e.deploy(t, "dns-reflection")
	victim := fabric.HostIP(1, 1)
	stop := e.gen.DNSReflection(victim, 5, 2000)
	defer stop()
	v, ok := e.waitReport(t, "dns-reflection", 2*time.Second)
	if !ok {
		t.Fatal("no reflection report")
	}
	refl, ok := v.(core.List)
	if !ok || len(refl) == 0 {
		t.Fatalf("reflector list = %v", core.FormatValue(v))
	}
}

func TestSlowlorisDetection(t *testing.T) {
	e := newEnv(t, 3, 6)
	e.deploy(t, "slowloris")
	target := fabric.HostIP(0, 0)
	stop := e.gen.Slowloris(target, 12, 50)
	defer stop()
	v, ok := e.waitReport(t, "slowloris", 3*time.Second)
	if !ok {
		t.Fatal("no slowloris report")
	}
	culprits, ok := v.(core.List)
	if !ok || len(culprits) < 8 {
		t.Fatalf("culprits = %v", core.FormatValue(v))
	}
}

func TestNewTCPConnCounting(t *testing.T) {
	e := newEnv(t, 2, 2)
	e.deploy(t, "new-tcp")
	// 200 conn/s of fresh SYNs.
	stop := e.gen.SYNFlood(fabric.HostIP(1, 0), 4, 200)
	defer stop()
	v, ok := e.waitReport(t, "new-tcp", 3*time.Second)
	if !ok {
		t.Fatal("no connection-count report")
	}
	if n, isInt := v.(int64); !isInt || n <= 0 {
		t.Fatalf("count = %v", core.FormatValue(v))
	}
}

func TestEntropyEstimation(t *testing.T) {
	e := newEnv(t, 2, 4)
	e.deploy(t, "entropy")
	// Traffic from several sources -> nonzero entropy.
	for i := 0; i < 4; i++ {
		stop := e.gen.StartFlow(traffic.FlowSpec{
			Src: fabric.HostIP(0, i), Dst: fabric.HostIP(1, 0),
			SrcPort: uint16(1000 + i), DstPort: 80, Proto: 6,
			PacketSize: 200, Rate: 500,
		})
		defer stop()
	}
	v, ok := e.waitReport(t, "entropy", 3*time.Second)
	if !ok {
		t.Fatal("no entropy report")
	}
	h, isF := v.(float64)
	if !isF || h <= 0 || h > 8 {
		t.Fatalf("entropy = %v", core.FormatValue(v))
	}
}

func TestLinkFailureDetection(t *testing.T) {
	e := newEnv(t, 2, 2)
	e.deploy(t, "link-failure")
	// Carry traffic, then stop it: the quiet port is reported.
	stop := e.gen.StartFlow(traffic.FlowSpec{
		Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0),
		SrcPort: 5, DstPort: 80, Proto: 6, PacketSize: 500, Rate: 1000,
	})
	e.loop.RunFor(600 * time.Millisecond)
	stop() // "link failure"
	v, ok := e.waitReport(t, "link-failure", 3*time.Second)
	if !ok {
		t.Fatal("no link-failure report")
	}
	ports, isList := v.(core.List)
	if !isList || len(ports) == 0 {
		t.Fatalf("failed ports = %v", core.FormatValue(v))
	}
}

// fastPollerSource polls every port each millisecond and does nothing
// else: a co-subscriber that makes the soil poll port counters at 1 ms.
const fastPollerSource = `
machine Fast {
  place all;
  poll p = Poll { .ival = 1, .what = port ANY };
  long n;
  state s {
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (p as recs) do { n = n + 1; }
  }
}
`

// LinkFail (.ival = 100, quietPolls = 3) declares a port failed after
// three quiet polls of its own, ≈ 300 ms, even when a 1 ms poller shares
// its poll group: the group's cadence is not the seed's.
func TestLinkFailureQuietPortAtItsOwnCadence(t *testing.T) {
	e := newEnv(t, 2, 2)
	e.deploy(t, "link-failure")
	if err := e.sd.AddTask(seeder.TaskSpec{Name: "fast", Source: fastPollerSource, Machines: []string{"Fast"}}); err != nil {
		t.Fatal(err)
	}
	stop := e.gen.StartFlow(traffic.FlowSpec{
		Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0),
		SrcPort: 5, DstPort: 80, Proto: 6, PacketSize: 500, Rate: 1000,
	})
	// Ports that never carried traffic are reported once, by 400 ms.
	e.loop.RunFor(600 * time.Millisecond)
	stop()
	quiet := e.loop.Now()
	h, _ := e.sd.Harvester("link-failure")
	e.loop.RunFor(time.Second)
	for _, r := range h.History() {
		if r.At <= quiet {
			continue
		}
		if d := r.At - quiet; d < 250*time.Millisecond || d > 450*time.Millisecond {
			t.Fatalf("first report %v after the traffic stopped, want ≈ 300 ms (3 polls at 100 ms): %v", d, core.FormatValue(r.Val))
		}
		return
	}
	t.Fatal("no link-failure report after the traffic stopped")
}

func TestTrafficChangeDetection(t *testing.T) {
	e := newEnv(t, 2, 2)
	e.deploy(t, "traffic-change")
	// Quiet baseline, then a 10x surge.
	stopA := e.gen.StartFlow(traffic.FlowSpec{
		Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0),
		SrcPort: 5, DstPort: 80, Proto: 6, PacketSize: 200, Rate: 100,
	})
	defer stopA()
	e.loop.RunFor(500 * time.Millisecond)
	stopB := e.gen.StartFlow(traffic.FlowSpec{
		Src: fabric.HostIP(0, 1), Dst: fabric.HostIP(1, 1),
		SrcPort: 6, DstPort: 80, Proto: 6, PacketSize: 1500, Rate: 4000,
	})
	defer stopB()
	if _, ok := e.waitReport(t, "traffic-change", 2*time.Second); !ok {
		t.Fatal("no change report")
	}
}

func TestFlowSizeDistribution(t *testing.T) {
	e := newEnv(t, 2, 2)
	e.deploy(t, "flow-size-dist")
	stop := e.gen.StartFlow(traffic.FlowSpec{
		Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0),
		SrcPort: 5, DstPort: 80, Proto: 6, PacketSize: 700, Rate: 800,
	})
	defer stop()
	v, ok := e.waitReport(t, "flow-size-dist", 3*time.Second)
	if !ok {
		t.Fatal("no histogram report")
	}
	hist, isMap := v.(*core.MapVal)
	if !isMap || hist.Len() == 0 {
		t.Fatalf("histogram = %v", core.FormatValue(v))
	}
}

func TestSYNFloodImbalance(t *testing.T) {
	e := newEnv(t, 2, 2)
	e.deploy(t, "syn-flood")
	stop := e.gen.SYNFlood(fabric.HostIP(1, 0), 4, 2000)
	defer stop()
	v, ok := e.waitReport(t, "syn-flood", 2*time.Second)
	if !ok {
		t.Fatal("no flood report")
	}
	if v != fabric.HostIP(1, 0).String() {
		t.Fatalf("victim = %v", v)
	}
}

func TestPartialTCPFlows(t *testing.T) {
	e := newEnv(t, 2, 2)
	e.deploy(t, "partial-tcp")
	// Pure SYNs that never complete.
	stop := e.gen.SYNFlood(fabric.HostIP(1, 0), 16, 1600)
	defer stop()
	v, ok := e.waitReport(t, "partial-tcp", 3*time.Second)
	if !ok {
		t.Fatal("no partial-flow report")
	}
	if n, isInt := v.(int64); !isInt || n < 10 {
		t.Fatalf("partials = %v", core.FormatValue(v))
	}
}

func TestHHHInheritedSharesHHPolling(t *testing.T) {
	// The inherited HHH keeps HH's poll variable; deploying it next to
	// plain HH lets the soil aggregate their identical subjects.
	e := newEnv(t, 2, 2)
	e.deploy(t, "hh")
	e.deploy(t, "hhh-inherited")
	e.loop.RunFor(200 * time.Millisecond)
	aggregated := false
	for _, sw := range e.fab.Topology().Switches() {
		s := e.sd.Soil(sw.ID)
		if s.NumSeeds() >= 2 && s.PollsDelivered() > s.PollsIssued() {
			aggregated = true
		}
	}
	if !aggregated {
		t.Fatal("no polling aggregation observed across HH and HHH")
	}
}

// Every catalogue task must be lint-clean: tasks that install TCAM
// rules demand TCAM in util (the zero-allocation pitfall).
func TestCatalogueLintClean(t *testing.T) {
	for _, d := range All() {
		prog, err := almanac.Parse(d.Source)
		if err != nil {
			t.Fatal(err)
		}
		machines := d.Machines
		if machines == nil {
			for _, m := range prog.Machines {
				machines = append(machines, m.Name)
			}
		}
		for _, mn := range machines {
			cm, err := almanac.CompileMachine(prog, mn)
			if err != nil {
				t.Fatal(err)
			}
			if warns := almanac.Lint(cm); len(warns) != 0 {
				t.Errorf("task %s machine %s: %v", d.Name, mn, warns)
			}
		}
	}
}

func TestTab1LoCReport(t *testing.T) {
	// Sanity on the catalogue sizes (the Tab. I LoC claim): every task
	// is a real program, not a stub.
	for _, d := range All() {
		lines := 0
		for _, ln := range strings.Split(d.Source, "\n") {
			ln = strings.TrimSpace(ln)
			if ln != "" && !strings.HasPrefix(ln, "//") {
				lines++
			}
		}
		if lines < 7 {
			t.Errorf("task %s has only %d LoC of Almanac", d.Name, lines)
		}
	}
}

func TestSketchHHDetection(t *testing.T) {
	e := newEnv(t, 2, 2)
	e.deploy(t, "hh-sketch")
	// One elephant flow: 1000 pkt/s x 1000 B = 1 MB/s >> 100 KB per
	// 500 ms window at the probe's sampled granularity.
	stop := e.gen.StartFlow(traffic.FlowSpec{
		Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0),
		SrcPort: 7, DstPort: 80, Proto: 6, PacketSize: 1000, Rate: 1000,
	})
	defer stop()
	v, ok := e.waitReport(t, "hh-sketch", 3*time.Second)
	if !ok {
		t.Fatal("no sketch-HH report")
	}
	if v != fabric.HostIP(1, 0).String() {
		t.Fatalf("reported %v, want the elephant destination", v)
	}
}

func TestSketchSeedSurvivesMigrationSnapshot(t *testing.T) {
	// Sketch state must deep-copy through the snapshot path: snapshot a
	// sketch-bearing seed, restore it elsewhere, and keep detecting.
	e := newEnv(t, 1, 2)
	e.deploy(t, "hh-sketch")
	stop := e.gen.StartFlow(traffic.FlowSpec{
		Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0),
		SrcPort: 7, DstPort: 80, Proto: 6, PacketSize: 1000, Rate: 1000,
	})
	defer stop()
	e.loop.RunFor(300 * time.Millisecond)
	// Snapshot whichever seed runs on leaf0 and restore-check equality.
	for _, sw := range e.fab.Topology().Switches() {
		s := e.sd.Soil(sw.ID)
		for _, id := range s.SeedIDs() {
			snap, err := s.SnapshotSeed(id)
			if err != nil {
				t.Fatal(err)
			}
			if snap.State == "" {
				t.Fatal("empty snapshot state")
			}
		}
	}
}
