package fleet

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
	"farm/internal/seeder"
)

// replayAudit applies a service's audit log serially against a fresh
// fabric of the same shape and returns the resulting placement digest.
// Every entry is replayed through the same guarded code path the live
// writer used — including the ones that errored live, because seeder
// mutations are not atomic on error (FailSwitch marks the switch failed
// before the replan that may fail; a rolled-back AddTask leaves the
// replan's migrations applied). Errors are expected to recur
// identically: the replay checks each op's error against the audited
// one, which is itself part of the serial-equivalence claim.
func replayAudit(t *testing.T, cfg Config, log []AuditEntry) string {
	t.Helper()
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: cfg.Spines, Leaves: cfg.Leaves, HostsPerLeaf: cfg.HostsPerLeaf,
	})
	if err != nil {
		t.Fatalf("replay topo: %v", err)
	}
	loop := engine.NewSerial()
	fab := fabric.New(topo, loop, fabric.Options{})
	sd := seeder.New(fab, seeder.Options{})
	for _, e := range log {
		var opErr error
		switch e.Op {
		case "submit":
			if sd.HasTask(e.Arg) {
				break
			}
			spec, err := CatalogueSpec(e.Arg, nil)
			if err != nil {
				t.Fatalf("replay seq %d: spec %s: %v", e.Seq, e.Arg, err)
			}
			opErr = sd.AddTask(spec)
		case "retire":
			if !sd.HasTask(e.Arg) {
				break
			}
			opErr = sd.RemoveTask(e.Arg)
		case "fail-switch":
			id, err := strconv.Atoi(e.Arg)
			if err != nil {
				t.Fatalf("replay seq %d: bad switch %q", e.Seq, e.Arg)
			}
			_, opErr = sd.FailSwitch(netmodel.SwitchID(id))
		case "recover-switch":
			id, err := strconv.Atoi(e.Arg)
			if err != nil {
				t.Fatalf("replay seq %d: bad switch %q", e.Seq, e.Arg)
			}
			opErr = sd.RecoverSwitch(netmodel.SwitchID(id))
		case "kill-leader", "takeover":
		default:
			t.Fatalf("replay seq %d: unknown op %q", e.Seq, e.Op)
		}
		got := ""
		if opErr != nil {
			got = opErr.Error()
		}
		if got != e.Err {
			t.Fatalf("replay seq %d (%s %s): error diverged\nlive:   %q\nreplay: %q",
				e.Seq, e.Op, e.Arg, e.Err, got)
		}
	}
	return sd.PlacementDigest()
}

// TestConcurrentWritersSerializable hammers the single-writer loop with
// submits, retires, and switch fail/recover from many goroutines at
// once, then replays the audit log serially against a fresh fabric: the
// placement digests must match byte-for-byte, proving the concurrent
// execution was equivalent to some serial order — the one the audit log
// records. Run with -race: this is also the data-race probe for the
// whole operator surface.
//
// Traffic stays off so seeds hold their initial state on both sides;
// placement utility reads live seed state, and a state transition the
// replay cannot see would (correctly) change the digest.
func TestConcurrentWritersSerializable(t *testing.T) {
	cfg := Config{
		Spines: 2, Leaves: 3, HostsPerLeaf: 4,
		Traffic:           false,
		HeartbeatInterval: 20 * time.Millisecond,
	}
	s := startService(t, cfg)
	waitReady(t, s, 2*time.Second)

	// One spine may fail/recover under the hammer; leaves keep quorum so
	// every task always has candidates.
	var spine netmodel.SwitchID = -1
	for _, sw := range s.Fabric().Topology().Switches() {
		if sw.Role == netmodel.Spine {
			spine = sw.ID
			break
		}
	}
	if spine < 0 {
		t.Fatalf("no spine switch")
	}

	taskPool := []string{"hh", "syn-flood", "port-scan", "entropy", "ddos", "superspreader"}
	const writers = 6
	const opsPerWriter = 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			for i := 0; i < opsPerWriter; i++ {
				// Op errors are part of the exercise: writers race on the
				// spine's failure state ("already failed"/"not failed") and
				// on the fabric's capacity ("insufficient resources" when
				// too many tasks are up at once). Every outcome lands in
				// the audit log and must reproduce identically on replay.
				task := taskPool[rng.Intn(len(taskPool))]
				switch rng.Intn(6) {
				case 0, 1, 2:
					if err := s.Submit(task); err != nil {
						t.Logf("writer %d: submit %s: %v", w, task, err)
					}
				case 3, 4:
					if err := s.Retire(task); err != nil {
						t.Logf("writer %d: retire %s: %v", w, task, err)
					}
				case 5:
					if i%2 == 0 {
						if _, err := s.FailSwitch(spine); err != nil {
							t.Logf("writer %d: fail-switch: %v", w, err)
						}
					} else if err := s.RecoverSwitch(spine); err != nil {
						t.Logf("writer %d: recover-switch: %v", w, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	log, err := s.AuditLog()
	if err != nil {
		t.Fatalf("AuditLog: %v", err)
	}
	if len(log) != writers*opsPerWriter {
		t.Fatalf("audit entries: %d, want %d", len(log), writers*opsPerWriter)
	}
	succeeded := 0
	for i, e := range log {
		if e.Seq != i {
			t.Fatalf("audit seq %d at index %d: log not densely ordered", e.Seq, i)
		}
		if e.Err == "" {
			succeeded++
		}
	}
	// The hammer tolerates capacity and failure-state rejections, but a
	// run where almost every op failed is not exercising the writer loop.
	if succeeded < len(log)/4 {
		t.Fatalf("only %d/%d audited ops succeeded", succeeded, len(log))
	}

	live, err := s.PlacementDigest()
	if err != nil {
		t.Fatalf("PlacementDigest: %v", err)
	}
	if serial := replayAudit(t, cfg, log); serial != live {
		t.Fatalf("digest mismatch: live %s vs serial replay %s — concurrent execution not serializable", live, serial)
	}
}
