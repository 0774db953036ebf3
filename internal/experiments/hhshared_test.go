package experiments

import (
	"fmt"
	"hash/fnv"
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

// TestHHSharedPollGroupsPinned runs HH seeds of four tasks sharing the
// poll group of every switch, two of whose harvesters raise their
// threshold mid-run, and pins the transcript of reports — virtual time,
// task, switch, hitters — to its length and FNV-1a digest. The getHH
// memo is written on batches after construction; a memo answer that
// leaked from one threshold to another would move the digest. The
// values are the serial run's, which the sharded executor reproduced at
// four workers before it was removed.
func TestHHSharedPollGroupsPinned(t *testing.T) {
	fab, loop, err := newFabric(2, 6, 24)
	if err != nil {
		t.Fatal(err)
	}
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

	const wantReports, wantBytes, wantDigest = 370, 9627, 0xabde447e431451c7
	transcript := strings.Join(log, "\n")
	h := fnv.New64a()
	h.Write([]byte(transcript))
	if len(log) != wantReports || len(transcript) != wantBytes || h.Sum64() != wantDigest {
		t.Fatalf("transcript: %d reports, %d bytes, digest %#x; want %d, %d, %#x\n%s",
			len(log), len(transcript), h.Sum64(), wantReports, wantBytes, uint64(wantDigest), transcript)
	}
}
