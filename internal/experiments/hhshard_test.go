package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"farm/internal/core"
	"farm/internal/harvest"
	"farm/internal/seeder"
	"farm/internal/soil"
	"farm/internal/traffic"
)

// hhSharedSource is a report-on-change HH seed whose harvester may raise
// its threshold: several tasks of it share every switch's port poll
// group, so their seeds read one batch per completion — and getHH's
// answer memoised on it — at two thresholds once a harvester has raised
// its own.
const hhSharedSource = `
machine HHShared%d {
  place all;
  poll pollStats = Poll { .ival = %d, .what = port ANY };
  external long threshold;
  list hitters;
  list reported;

  state observe {
    when (pollStats as stats) do {
      hitters = getHH(stats, threshold);
      if (hitters <> reported) then {
        send hitters to harvester;
        reported = hitters;
      }
    }
  }
  when (recv long newTh from harvester) do { threshold = newTh; }
}
`

// TestHHSharedPollGroupsSharded runs HH seeds of four tasks sharing the
// poll group of every switch, two of whose harvesters raise their
// threshold mid-run, on the serial engine and on four sharded workers
// (forced on, so -race sees the concurrent path), and requires the same
// transcript of reports — virtual time, task, switch, hitters — from
// both. The getHH memo is written on batches after construction: this is
// the gate that those writes stay on the owning switch's shard.
func TestHHSharedPollGroupsSharded(t *testing.T) {
	run := func(eng EngineConfig) string {
		fab, loop, stop, err := newFabricOn(eng, 2, 6, 24)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		sd := seeder.New(fab, seeder.Options{})
		var log []string
		const tasks = 4
		for i := 0; i < tasks; i++ {
			i := i
			reports := 0
			if err := sd.AddTask(seeder.TaskSpec{
				Name:   fmt.Sprintf("hh%d", i),
				Source: fmt.Sprintf(hhSharedSource, i, 10+i),
				Externals: map[string]map[string]core.Value{
					fmt.Sprintf("HHShared%d", i): {"threshold": int64(400_000)},
				},
				Harvester: harvest.FuncLogic{Message: func(ctx harvest.Context, from soil.SeedRef, v core.Value) {
					log = append(log, fmt.Sprintf("%v hh%d %s %s", ctx.Now(), i, from.Switch, core.FormatValue(v)))
					if reports++; i%2 == 1 && reports == 20 {
						ctx.SendToSeeds(from.Machine, "", int64(2_000_000))
					}
				}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		w := traffic.NewBulkWorkload(fab, traffic.BulkConfig{
			Tick: 10 * time.Millisecond, BaseRate: 1e5, HeavyRate: 5e7,
			HeavyRatio: 0.05, Churn: 100 * time.Millisecond, Seed: 23,
		})
		defer w.Stop()
		loop.RunFor(3 * time.Second)
		if len(log) < 200 {
			t.Fatalf("%+v: %d reports, too few to compare", eng, len(log))
		}
		return strings.Join(log, "\n")
	}
	serial := run(EngineConfig{})
	sharded := run(EngineConfig{Workers: 4, ForceWorkers: true})
	if sharded != serial {
		t.Fatalf("sharded reports diverged from serial:\n--- serial\n%s\n--- sharded\n%s", serial, sharded)
	}
}
