package experiments

import (
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
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

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// The catalogue digest pin: every Tab. I task deployed on the spine-leaf
// fabric under an identical deterministic traffic cocktail plus bulk
// counters. Everything observable — the full harvester report stream,
// every seed's final snapshot on every switch, per-soil poll delivery
// counters, and fabric drop totals — is folded into one digest per task.
// The golden values were produced at commit 0ea8a6b by
// `farm-bench -exp seed-path -json`, which ran this scenario on the AST
// interpreter, the stack VM and the register VM and required all three
// to agree (as the engine-loop and packet-path gates did for heap vs
// wheel and linear vs indexed classification); the single production
// path must keep reproducing them.
const (
	catalogueLeaves = 3
	catalogueMillis = 1200
	catalogueSeed   = 11
)

// catalogueDigest runs one task through the scenario and returns the
// observable digest plus the report and seed counts.
func catalogueDigest(d tasks.Def) (digest string, reports, seeds int, err error) {
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: 2, Leaves: catalogueLeaves, HostsPerLeaf: 8,
	})
	if err != nil {
		return "", 0, 0, err
	}
	loop := engine.NewSerial()
	fab := fabric.New(topo, loop, fabric.Options{})
	sd := seeder.New(fab, seeder.Options{})

	h := fnv.New64a()
	var inner harvest.Logic
	if d.NewHarvester != nil {
		inner = d.NewHarvester()
	}
	logic := &digestLogic{inner: inner, h: h}
	spec := seeder.TaskSpec{
		Name: d.Name, Source: d.Source, Machines: d.Machines,
		Externals: d.DefaultExternals,
		Harvester: logic,
	}
	if err := sd.AddTask(spec); err != nil {
		return "", 0, 0, err
	}

	defer startCatalogueLoad(fab)()
	loop.RunFor(catalogueMillis * time.Millisecond)

	// Fold every seed's terminal state, switch by switch in name order.
	sws := topo.Switches()
	sort.Slice(sws, func(i, j int) bool { return sws[i].Name < sws[j].Name })
	for _, sw := range sws {
		s := sd.Soil(sw.ID)
		if s == nil {
			continue
		}
		fmt.Fprintf(h, "soil %s polls=%d probes=%d\n", sw.Name, s.PollsDelivered(), s.ProbesDelivered())
		for _, id := range s.SeedIDs() {
			snap, err := s.SnapshotSeed(id)
			if err != nil {
				return "", 0, 0, err
			}
			seeds++
			fmt.Fprintf(h, "seed %s/%s %s\n", sw.Name, id, catalogueSnapString(snap))
		}
	}
	fmt.Fprintf(h, "dropped=%d\n", fab.DroppedInFabric())
	return fmt.Sprintf("%016x", h.Sum64()), logic.reports, seeds, nil
}

// startCatalogueLoad starts the scenario's traffic on fab, a spine-leaf
// fabric of catalogueLeaves leaves: the attack cocktail and the bulk
// counters. It returns what stops them.
func startCatalogueLoad(fab *fabric.Fabric) (stop func()) {
	gen := traffic.NewGenerator(fab, catalogueSeed)
	stops := []func(){
		gen.SYNFlood(fabric.HostIP(0, 0), 8, 4000),
		gen.PortScan(fabric.HostIP(1, 0), fabric.HostIP(0, 1), 1000),
		gen.SuperSpreader(fabric.HostIP(2%catalogueLeaves, 0), 16, 2000),
		gen.SSHBruteForce(fabric.HostIP(1, 2), fabric.HostIP(0, 2), 200),
		gen.DNSReflection(fabric.HostIP(0, 3), 4, 1000),
		gen.Slowloris(fabric.HostIP(0, 4), 12, 50),
	}
	bulk := traffic.NewBulkWorkload(fab, traffic.BulkConfig{
		Tick: 10 * time.Millisecond, HeavyRatio: 0.1, Churn: time.Second, Seed: 5,
	})
	return func() {
		bulk.Stop()
		for _, s := range stops {
			s()
		}
	}
}

// digestLogic folds every report a task's harvester gets into h and
// counts it, then hands the start and the report to the task's own
// harvester (inner, nil for a task without one), so seed recv paths
// (threshold pushes, mitigation commands) are exercised.
type digestLogic struct {
	inner   harvest.Logic
	h       hash.Hash
	reports int
}

func (l *digestLogic) OnStart(ctx harvest.Context) {
	if l.inner != nil {
		l.inner.OnStart(ctx)
	}
}

func (l *digestLogic) OnSeedMessage(ctx harvest.Context, from soil.SeedRef, v core.Value) {
	l.reports++
	fmt.Fprintf(l.h, "%d|%s|%s|%s\n", ctx.Now(), from.Switch, from.Machine, core.FormatValue(v))
	if l.inner != nil {
		l.inner.OnSeedMessage(ctx, from, v)
	}
}

// catalogueSnapString renders a snapshot deterministically.
func catalogueSnapString(s core.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "state=%s", s.State)
	keys := make([]string, 0, len(s.Env))
	for k := range s.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, core.FormatValue(s.Env[k]))
	}
	sts := make([]string, 0, len(s.StateVars))
	for k := range s.StateVars {
		sts = append(sts, k)
	}
	sort.Strings(sts)
	for _, st := range sts {
		vks := make([]string, 0, len(s.StateVars[st]))
		for k := range s.StateVars[st] {
			vks = append(vks, k)
		}
		sort.Strings(vks)
		for _, k := range vks {
			fmt.Fprintf(&b, " %s.%s=%s", st, k, core.FormatValue(s.StateVars[st][k]))
		}
	}
	return b.String()
}

// TestCatalogueDigestsGolden runs the whole catalogue on the production
// path — traffic, fabric, dataplane rules/samplers/invalidation, soil,
// register VM, harvest, all on the wheel — and compares the 18 digests
// to the golden file. Regenerate (only for an intended behaviour change)
// with: go test ./internal/experiments -run TestCatalogueDigestsGolden -update
func TestCatalogueDigestsGolden(t *testing.T) {
	var got strings.Builder
	totalReports := 0
	for _, d := range tasks.All() {
		digest, reports, seeds, err := catalogueDigest(d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if seeds == 0 {
			t.Fatalf("%s: no seeds deployed", d.Name)
		}
		totalReports += reports
		fmt.Fprintf(&got, "%s %s\n", d.Name, digest)
	}
	if totalReports == 0 {
		t.Fatal("no task reported to its harvester")
	}

	path := filepath.Join("testdata", "catalogue_digests.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("catalogue digests moved (task digest per line)\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
