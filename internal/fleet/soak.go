package fleet

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"farm/internal/netmodel"
	"farm/internal/tasks"
)

// The fleet-soak harness: N concurrent RPC clients submit and retire
// tasks from the Tab. I catalogue against a live fleetd while
// background traffic runs, with one forced leader kill mid-run. Each
// client owns a disjoint slice of the catalogue and drives it through
// churn rounds, so the expected final task set is known exactly; the
// harness then reconciles it against the fleet's actual state. Zero
// lost and zero unexpected tasks across the failover is the pass bar.

// SoakConfig shapes a soak run. Zero values get defaults.
type SoakConfig struct {
	// Service is the fleet config to boot (RPCAddr must be enabled;
	// defaults to an ephemeral loopback port).
	Service Config
	// Clients is the number of concurrent RPC clients (default 8).
	Clients int
	// Rounds is the churn rounds per client (default 6): each round
	// submits every owned task, then retires a round-dependent subset.
	Rounds int
	Logf   func(format string, args ...any)
}

// soakOpDeadline bounds each SubmitWait/RetireWait retry window across
// the leadership gap.
const soakOpDeadline = 10 * time.Second

func (c *SoakConfig) fill() {
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.Rounds == 0 {
		c.Rounds = 6
	}
	if c.Service.RPCAddr == "" {
		c.Service.RPCAddr = "127.0.0.1:0"
	}
	if c.Service.HTTPAddr == "" {
		c.Service.HTTPAddr = "127.0.0.1:0"
	}
	// The default AS5712/AS7712-class switch models hold only a few
	// Tab. I tasks at once; the soak churns the whole catalogue
	// concurrently, so give every switch data-center-scale headroom
	// unless the caller pinned its own capacities.
	if c.Service.LeafCapacity == nil {
		c.Service.LeafCapacity = soakCapacity()
	}
	if c.Service.SpineCapacity == nil {
		c.Service.SpineCapacity = soakCapacity()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// soakCapacity is a per-switch resource model wide enough for the full
// catalogue plus baseline agents on every switch simultaneously.
func soakCapacity() netmodel.Resources {
	return netmodel.Resources{
		netmodel.ResVCPU: 128,
		netmodel.ResRAM:  1 << 17, // 128 GB
		netmodel.ResTCAM: 1 << 14,
		netmodel.ResPCIe: 512,
		netmodel.ResPoll: 1e6,
	}
}

// SoakReport is the harness's verdict.
type SoakReport struct {
	Clients     int
	Ops         int           // RPC mutations issued (submits + retires)
	RetriedOps  int           // ops that hit at least one no-leader retry
	Takeovers   uint64        // standby promotions observed (want exactly 1)
	LeaderAfter string        // leader after the forced kill
	NotReadyFor time.Duration // /healthz-visible gap around the failover
	Expected    []string      // task set the clients converged on
	Actual      []string      // task set the fleet ended with
	Lost        []string      // expected but missing — must be empty
	Unexpected  []string      // present but never expected — must be empty
	Elapsed     time.Duration
}

// Passed reports whether the soak met the survivability bar.
func (r *SoakReport) Passed() bool {
	return r.Takeovers == 1 && len(r.Lost) == 0 && len(r.Unexpected) == 0
}

// String renders a one-screen summary.
func (r *SoakReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet-soak: %d clients, %d ops (%d retried across failover)\n",
		r.Clients, r.Ops, r.RetriedOps)
	fmt.Fprintf(&b, "  takeovers=%d leader=%s not-ready window=%v elapsed=%v\n",
		r.Takeovers, r.LeaderAfter, r.NotReadyFor, r.Elapsed)
	fmt.Fprintf(&b, "  final tasks: %d expected, %d actual, %d lost, %d unexpected\n",
		len(r.Expected), len(r.Actual), len(r.Lost), len(r.Unexpected))
	if r.Passed() {
		b.WriteString("  PASS: no task lost or duplicated across the leader kill\n")
	} else {
		fmt.Fprintf(&b, "  FAIL: lost=%v unexpected=%v takeovers=%d\n", r.Lost, r.Unexpected, r.Takeovers)
	}
	return b.String()
}

// soakClient is one operator: it owns a disjoint catalogue slice and
// churns it, riding out the failover with retrying calls.
type soakClient struct {
	id    int
	owned []string // disjoint slice of the catalogue
	keep  []string // the subset the client leaves deployed at the end
}

// Soak boots a fleet service, runs the concurrent churn with a forced
// leader kill at the halfway point, and reconciles the final state.
func Soak(cfg SoakConfig) (*SoakReport, error) {
	cfg.fill()
	start := time.Now()

	s, err := New(cfg.Service)
	if err != nil {
		return nil, err
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	defer s.Stop()

	cat := tasks.Names()
	if len(cat) < cfg.Clients {
		return nil, fmt.Errorf("fleet: soak needs >= %d catalogue tasks, have %d", cfg.Clients, len(cat))
	}
	clients := make([]*soakClient, cfg.Clients)
	for i := range clients {
		clients[i] = &soakClient{id: i}
	}
	// Deal the catalogue round-robin: disjoint ownership means no two
	// clients ever submit or retire the same task, so the expected final
	// set is exact, and an unexpected survivor can only come from the
	// fleet itself (a duplicated or resurrected task).
	for i, name := range cat {
		c := clients[i%cfg.Clients]
		c.owned = append(c.owned, name)
	}
	for _, c := range clients {
		// Even-indexed owned tasks stay deployed at the end.
		for i, name := range c.owned {
			if i%2 == 0 {
				c.keep = append(c.keep, name)
			}
		}
	}

	totalOps := 0
	for _, c := range clients {
		totalOps += cfg.Rounds*2*len(c.owned) + len(c.keep) // churn + final pass
	}
	// Shared by the client goroutines, the killer goroutine and this
	// one.
	var (
		opsDone    atomic.Int64
		retried    atomic.Int64
		killOnce   sync.Once
		killDone   = make(chan struct{})
		notReady   atomic.Int64 // not-ready window, ns
		clientErrs = make(chan error, cfg.Clients)
		wg         sync.WaitGroup
	)
	killAt := int64(totalOps / 2)

	// The killer: once half the ops have landed, kill the active replica
	// and clock how long the service stays not-ready.
	maybeKill := func() {
		if opsDone.Load() < killAt {
			return
		}
		killOnce.Do(func() {
			go func() {
				defer close(killDone)
				cfg.Logf("fleet-soak: killing leader after %d ops", opsDone.Load())
				if err := s.KillLeader(); err != nil {
					cfg.Logf("fleet-soak: kill leader: %v", err)
					return
				}
				t0 := time.Now()
				// The takeover's heartbeat timeout and sweeps, plus
				// wall-clock slack for the takeover replan.
				bound := s.cfg.HeartbeatTimeout + 10*s.cfg.HeartbeatInterval + 2*time.Second
				for !s.Ready() {
					if time.Since(t0) > bound {
						cfg.Logf("fleet-soak: still not ready after %v", bound)
						break
					}
					time.Sleep(time.Millisecond)
				}
				notReady.Store(int64(time.Since(t0)))
			}()
		})
	}

	runClient := func(c *soakClient) error {
		cl, err := Dial(s.RPCAddr())
		if err != nil {
			return fmt.Errorf("client %d: dial: %w", c.id, err)
		}
		defer cl.Close()
		rng := rand.New(rand.NewSource(int64(c.id)*104729 + 7))
		op := func(submit bool, name string) error {
			var err error
			if submit {
				err = cl.Submit(name)
			} else {
				err = cl.Retire(name)
			}
			if IsRetryable(err) {
				retried.Add(1)
				if submit {
					err = cl.SubmitWait(name, soakOpDeadline)
				} else {
					err = cl.RetireWait(name, soakOpDeadline)
				}
			}
			if err != nil {
				return fmt.Errorf("client %d: %s %s: %w", c.id, map[bool]string{true: "submit", false: "retire"}[submit], name, err)
			}
			opsDone.Add(1)
			maybeKill()
			return nil
		}
		for round := 0; round < cfg.Rounds; round++ {
			for _, name := range c.owned {
				if err := op(true, name); err != nil {
					return err
				}
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(2)) * time.Millisecond)
				}
			}
			for _, name := range c.owned {
				if err := op(false, name); err != nil {
					return err
				}
			}
		}
		// Final pass: leave exactly the keep-set deployed.
		for _, name := range c.keep {
			if err := op(true, name); err != nil {
				return err
			}
		}
		return nil
	}

	for _, c := range clients {
		wg.Add(1)
		go func(c *soakClient) {
			defer wg.Done()
			if err := runClient(c); err != nil {
				clientErrs <- err
			}
		}(c)
	}
	wg.Wait()
	close(clientErrs)
	for err := range clientErrs {
		return nil, err
	}
	select {
	case <-killDone:
	case <-time.After(soakOpDeadline):
		return nil, fmt.Errorf("fleet: soak finished without the leader kill completing")
	}

	rep := &SoakReport{
		Clients:     cfg.Clients,
		Ops:         int(opsDone.Load()),
		RetriedOps:  int(retried.Load()),
		Takeovers:   s.Takeovers(),
		NotReadyFor: time.Duration(notReady.Load()),
		Elapsed:     time.Since(start),
	}
	rep.LeaderAfter, _, _ = s.Leader()

	expected := map[string]bool{}
	for _, c := range clients {
		for _, name := range c.keep {
			expected[name] = true
		}
	}
	actual, err := s.TaskNames()
	if err != nil {
		return nil, err
	}
	actualSet := map[string]bool{}
	for _, name := range actual {
		actualSet[name] = true
	}
	for name := range expected {
		rep.Expected = append(rep.Expected, name)
		if !actualSet[name] {
			rep.Lost = append(rep.Lost, name)
		}
	}
	for _, name := range actual {
		rep.Actual = append(rep.Actual, name)
		if !expected[name] {
			rep.Unexpected = append(rep.Unexpected, name)
		}
	}
	sort.Strings(rep.Expected)
	sort.Strings(rep.Lost)
	sort.Strings(rep.Unexpected)

	if err := s.Stop(); err != nil {
		return nil, fmt.Errorf("fleet: soak stop: %w", err)
	}
	return rep, nil
}
