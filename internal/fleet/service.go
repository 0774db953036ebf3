// Package fleet turns the batch-experiment reproduction into a
// long-lived fleet service: a Service boots a fabric on the wall-clock
// engine, runs background traffic, and serves the seeder's task
// lifecycle (compile → analyze → place → install, the pipeline farmctl
// fronts; compile is a lookup in the seeder's program store for every
// source it has seen, so a resubmit starts at analyze) to concurrent
// operators over HTTP and the transport package's TCP RPC.
//
// Concurrency model — the single-writer loop. The fabric, soils, and
// seeder are written for a single execution context: every mutation
// happens inside an event callback on the engine's driving goroutine.
// The Service keeps that invariant under concurrent clients by funneling
// every operator mutation through exec(), which schedules the operation
// as an immediate event on the real-time engine and waits for it. RPC
// and HTTP handlers therefore never touch the seeder directly; they
// enqueue, the engine goroutine applies, and the reply carries the
// result back. An audit log (one entry per applied mutation, in
// application order) makes the serialization checkable: replaying the
// log serially against a fresh fabric must reproduce the placement
// digest byte-for-byte.
//
// Survivability — the active/standby seeder pair. Two control replicas
// ride on the service. The active one owns task admission and publishes
// heartbeats and task-state deltas on the control bus; the standby
// mirrors the task set and watches the heartbeats. When heartbeats go
// quiet past the timeout the standby promotes itself: it reconciles its
// mirror against the fabric's surviving state and forces a full
// placement replan (the warm-start machinery's recovery path). See
// docs/fleetd.md.
package fleet

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/harvest"
	"farm/internal/netmodel"
	"farm/internal/seeder"
	"farm/internal/soil"
	"farm/internal/tasks"
	"farm/internal/traffic"
	"farm/internal/transport/bus"

	"farm/internal/core"
)

// Fleet-service errors surfaced to operators. ErrNoLeader is
// retryable: a standby is about to take over.
var (
	ErrStopped  = errors.New("fleet: service stopped")
	ErrDraining = errors.New("fleet: service draining, not accepting tasks")
	ErrNoLeader = errors.New("fleet: no active seeder replica (failover in progress)")
)

// Config shapes a Service.
type Config struct {
	// FatTreeK, when > 0, boots a k-ary fat-tree fabric; otherwise a
	// Spines×Leaves spine-leaf is built.
	FatTreeK int
	// Spines/Leaves/HostsPerLeaf shape the spine-leaf fabric (defaults
	// 2/4/8). HostsPerLeaf also applies to fat-tree edge switches.
	Spines, Leaves, HostsPerLeaf int
	// Traffic starts the background attack-cocktail workload.
	Traffic bool
	// TrafficSeed seeds the generator (0 means 1).
	TrafficSeed int64
	// HeartbeatInterval is the active replica's heartbeat period
	// (default 50 ms); HeartbeatTimeout is how long the standby waits
	// before suspecting leader loss (default 5× the interval).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// LeafCapacity/SpineCapacity override the per-switch resource models
	// (nil = the netmodel defaults). The soak harness uses generous
	// capacities so the whole catalogue can be live at once; the default
	// AS5712/AS7712-class models fit only a few Tab. I tasks per switch.
	LeafCapacity  netmodel.Resources
	SpineCapacity netmodel.Resources
	// Deprecated: placement runs serially; the value is ignored. bench/e2e still sets it.
	PlacementParallel int
	// ReoptimizeInterval, when > 0, re-runs global placement
	// periodically on the live fabric.
	ReoptimizeInterval time.Duration
	// HTTPAddr/RPCAddr are listen addresses ("" disables that server;
	// ":0" picks a free port, reported by HTTPAddr()/RPCAddr()).
	HTTPAddr string
	RPCAddr  string
	Logf     func(format string, args ...any)
}

// check refuses the negative sizes and durations fill would pass on: a
// zero means "default", a negative value is a mistake.
func (c *Config) check() error {
	switch {
	case c.FatTreeK < 0:
		return fmt.Errorf("fleet: negative FatTreeK %d", c.FatTreeK)
	case c.HeartbeatInterval < 0:
		return fmt.Errorf("fleet: negative HeartbeatInterval %v", c.HeartbeatInterval)
	case c.HeartbeatTimeout < 0:
		return fmt.Errorf("fleet: negative HeartbeatTimeout %v", c.HeartbeatTimeout)
	case c.ReoptimizeInterval < 0:
		return fmt.Errorf("fleet: negative ReoptimizeInterval %v", c.ReoptimizeInterval)
	}
	return nil
}

func (c *Config) fill() {
	if c.Spines == 0 {
		c.Spines = 2
	}
	if c.Leaves == 0 {
		c.Leaves = 4
	}
	if c.HostsPerLeaf == 0 {
		c.HostsPerLeaf = 8
	}
	if c.TrafficSeed == 0 {
		c.TrafficSeed = 1
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 5 * c.HeartbeatInterval
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// AuditEntry is one applied mutation of the single-writer loop.
type AuditEntry struct {
	Seq  int           `json:"seq"`
	At   time.Duration `json:"at"`
	Term uint64        `json:"term"`
	Op   string        `json:"op"`
	Arg  string        `json:"arg,omitempty"`
	Err  string        `json:"err,omitempty"`
}

// leaderInfo is the lock-free view of the current leadership the fast
// paths (healthz) read.
type leaderInfo struct {
	name string
	term uint64
}

// Service is the long-lived fleet daemon core.
type Service struct {
	cfg    Config
	rt     *engine.RealTime
	fab    *fabric.Fabric
	sd     *seeder.Seeder
	broker *bus.Broker

	// Engine-goroutine-owned state (touched only inside exec'd events
	// or during single-threaded wiring before the drive loop starts).
	replicas  []*Replica
	leader    *Replica
	term      uint64
	takeovers uint64
	audit     []AuditEntry

	leaderView   atomic.Pointer[leaderInfo]
	takeoversA   atomic.Uint64
	draining     atomic.Bool
	harvestCount atomic.Uint64

	trafficStops []func()

	httpState httpState
	rpcState  rpcState

	started   bool
	driveDone chan struct{}
	stopOnce  sync.Once
	stopErr   error

	fabricDesc string
}

// New builds a Service (fabric, seeder, broker, replicas) without
// starting any goroutine or listener; Start brings it up.
func New(cfg Config) (*Service, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	cfg.fill()
	var topo *netmodel.Topology
	var err error
	if cfg.FatTreeK > 0 {
		topo, err = netmodel.FatTree(netmodel.FatTreeOptions{
			K: cfg.FatTreeK, HostsPerEdge: cfg.HostsPerLeaf,
			EdgeCapacity: cfg.LeafCapacity, AggCapacity: cfg.SpineCapacity,
		})
	} else {
		topo, err = netmodel.SpineLeaf(netmodel.SpineLeafOptions{
			Spines: cfg.Spines, Leaves: cfg.Leaves, HostsPerLeaf: cfg.HostsPerLeaf,
			LeafCapacity: cfg.LeafCapacity, SpineCapacity: cfg.SpineCapacity,
		})
	}
	if err != nil {
		return nil, err
	}
	rt := engine.NewRealTime()
	fab := fabric.New(topo, rt, fabric.Options{})
	sd := seeder.New(fab, seeder.Options{Logf: cfg.Logf})
	s := &Service{
		cfg:       cfg,
		rt:        rt,
		fab:       fab,
		sd:        sd,
		broker:    bus.New(rt, nil),
		driveDone: make(chan struct{}),
	}
	// Bound control-plane fan-out queues so a wedged subscriber degrades
	// into counted drops (surfaced via /metrics) instead of unbounded
	// memory growth; see docs/transport.md for the policy.
	s.broker.SetQueueLimit(4096)
	s.replicas = []*Replica{
		newReplica(s, "seeder-a"),
		newReplica(s, "seeder-b"),
	}
	if cfg.FatTreeK > 0 {
		s.fabricDesc = fmt.Sprintf("fat-tree k=%d (%d switches, %d hosts)",
			cfg.FatTreeK, topo.NumSwitches(), len(topo.Hosts()))
	} else {
		s.fabricDesc = fmt.Sprintf("spine-leaf %dx%d (%d switches, %d hosts)",
			cfg.Spines, cfg.Leaves, topo.NumSwitches(), len(topo.Hosts()))
	}
	return s, nil
}

// FabricDesc describes the booted fabric for banners and status lines.
func (s *Service) FabricDesc() string { return s.fabricDesc }

// Fabric exposes the live fabric (tests, metrics wiring).
func (s *Service) Fabric() *fabric.Fabric { return s.fab }

// Seeder exposes the underlying seeder. Mutations must go through the
// service's operator API — direct calls break the single-writer
// contract.
func (s *Service) Seeder() *seeder.Seeder { return s.sd }

// Start boots the service: replica bootstrap (seeder-a leads, seeder-b
// stands by), background traffic, the drive loop, and the HTTP/RPC
// listeners.
func (s *Service) Start() error {
	if s.started {
		return errors.New("fleet: already started")
	}
	s.started = true

	// Pre-drive wiring runs single-threaded: no event executes until
	// the drive goroutine starts.
	for _, r := range s.replicas {
		r.wire()
	}
	s.replicas[0].promote(false, "bootstrap")
	s.replicas[1].standby()

	if s.cfg.Traffic {
		s.startTraffic()
	}
	if iv := s.cfg.ReoptimizeInterval; iv > 0 {
		tk := s.rt.Every(iv, func() {
			if s.leader == nil {
				return
			}
			if err := s.sd.Reoptimize(); err != nil {
				s.cfg.Logf("fleet: periodic reoptimize: %v", err)
			}
		})
		s.trafficStops = append(s.trafficStops, tk.Stop)
	}

	go s.drive()

	if err := s.startRPC(); err != nil {
		s.Stop()
		return err
	}
	if err := s.startHTTP(); err != nil {
		s.Stop()
		return err
	}
	return nil
}

// drive is the engine goroutine: the single writer every mutation runs
// on. It sleeps between event deadlines and exits when the engine is
// closed by Stop.
func (s *Service) drive() {
	defer close(s.driveDone)
	const forever = time.Duration(1) << 62
	s.rt.RunUntil(forever)
}

// exec runs fn as an immediate event on the engine goroutine and waits
// for it — the only door into the seeder, fabric, broker, and replica
// state once the service is running.
func (s *Service) exec(fn func()) error {
	done := make(chan struct{})
	s.rt.Post(func() {
		fn()
		close(done)
	})
	select {
	case <-done:
		return nil
	case <-s.driveDone:
		// The drive loop exited; the event either ran just before the
		// loop closed or will never run.
		select {
		case <-done:
			return nil
		default:
			return ErrStopped
		}
	}
}

// apply is exec plus an audit-log entry: every operator mutation lands
// here so the applied order is recorded for serial replay.
func (s *Service) apply(op, arg string, fn func() error) error {
	var opErr error
	err := s.exec(func() {
		opErr = fn()
		e := AuditEntry{
			Seq: len(s.audit), At: s.rt.Now(), Term: s.term, Op: op, Arg: arg,
		}
		if opErr != nil {
			e.Err = opErr.Error()
		}
		s.audit = append(s.audit, e)
	})
	if err != nil {
		return err
	}
	return opErr
}

// AuditLog snapshots the applied-mutation log.
func (s *Service) AuditLog() ([]AuditEntry, error) {
	var out []AuditEntry
	err := s.exec(func() {
		out = append(out, s.audit...)
	})
	return out, err
}

// CatalogueSpec builds the seeder TaskSpec for one Tab. I catalogue
// task, with its default externals and harvester. The harvester is
// wrapped to count reports into the service's metrics when svc is
// non-nil.
func CatalogueSpec(name string, svc *Service) (seeder.TaskSpec, error) {
	d, err := tasks.ByName(name)
	if err != nil {
		return seeder.TaskSpec{}, err
	}
	var logic harvest.Logic
	if d.NewHarvester != nil {
		logic = d.NewHarvester()
	}
	if svc != nil {
		logic = countingLogic{inner: logic, n: &svc.harvestCount}
	}
	return seeder.TaskSpec{
		Name:      d.Name,
		Source:    d.Source,
		Machines:  d.Machines,
		Externals: d.DefaultExternals,
		Harvester: logic,
	}, nil
}

// countingLogic wraps a harvester to count delivered reports.
type countingLogic struct {
	inner harvest.Logic
	n     *atomic.Uint64
}

func (c countingLogic) OnStart(ctx harvest.Context) {
	if c.inner != nil {
		c.inner.OnStart(ctx)
	}
}

func (c countingLogic) OnSeedMessage(ctx harvest.Context, from soil.SeedRef, v core.Value) {
	c.n.Add(1)
	if c.inner != nil {
		c.inner.OnSeedMessage(ctx, from, v)
	}
}

// Submit deploys a Tab. I catalogue task on the live fabric through the
// active replica. Submitting an already-deployed task is a no-op
// success, which makes client retries across a failover idempotent.
func (s *Service) Submit(name string) error {
	if s.draining.Load() {
		return ErrDraining
	}
	return s.apply("submit", name, func() error {
		if s.leader == nil {
			return ErrNoLeader
		}
		return s.leader.submit(name)
	})
}

// Retire undeploys a task. Retiring an absent task is a no-op success.
func (s *Service) Retire(name string) error {
	return s.apply("retire", name, func() error {
		if s.leader == nil {
			return ErrNoLeader
		}
		return s.leader.retire(name)
	})
}

// FailSwitch fails a switch on the live fabric and re-places the
// surviving tasks; tasks that no longer fit are undeployed (and
// un-mirrored) as in seeder.FailSwitch.
func (s *Service) FailSwitch(id netmodel.SwitchID) (dropped []string, err error) {
	opErr := s.apply("fail-switch", fmt.Sprint(id), func() error {
		if s.leader == nil {
			return ErrNoLeader
		}
		var ferr error
		dropped, ferr = s.sd.FailSwitch(id)
		if ferr == nil {
			for _, t := range dropped {
				s.broker.Publish(topicState, stateDelta{Op: "remove", Task: t})
			}
		}
		return ferr
	})
	return dropped, opErr
}

// RecoverSwitch returns a failed switch to service.
func (s *Service) RecoverSwitch(id netmodel.SwitchID) error {
	return s.apply("recover-switch", fmt.Sprint(id), func() error {
		if s.leader == nil {
			return ErrNoLeader
		}
		return s.sd.RecoverSwitch(id)
	})
}

// KillLeader force-kills the active control replica (failover drills
// and the soak harness): it stops heartbeating and processing
// mutations, and the standby takes over after the heartbeat timeout.
func (s *Service) KillLeader() error {
	return s.apply("kill-leader", "", func() error {
		r := s.leader
		if r == nil {
			return ErrNoLeader
		}
		r.kill()
		return nil
	})
}

// Leader returns the lock-free leadership view: replica name, term, and
// whether a leader currently exists.
func (s *Service) Leader() (name string, term uint64, ok bool) {
	li := s.leaderView.Load()
	if li == nil {
		return "", 0, false
	}
	return li.name, li.term, true
}

// Takeovers counts standby promotions caused by leader loss.
func (s *Service) Takeovers() uint64 { return s.takeoversA.Load() }

// Ready reports whether the service can accept operator mutations: a
// leader exists and the service is not draining.
func (s *Service) Ready() bool {
	return !s.draining.Load() && s.leaderView.Load() != nil
}

// Drain stops admission of new tasks; running tasks, traffic, and reads
// keep working. Part of the drain-then-stop shutdown sequence.
func (s *Service) Drain() { s.draining.Store(true) }

// Stop shuts the service down: drain, close the RPC server (in-flight
// calls complete), shut the HTTP server down, stop traffic and replica
// timers on the engine goroutine, then close the engine and join the
// drive loop. Safe to call more than once.
func (s *Service) Stop() error {
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		if s.rpcState.srv != nil {
			s.stopErr = errors.Join(s.stopErr, s.rpcState.srv.Close())
		}
		s.stopHTTP()
		// Quiesce engine-owned periodic work before closing the engine:
		// ticker Stop must run on the engine goroutine.
		_ = s.exec(func() {
			for _, stop := range s.trafficStops {
				stop()
			}
			s.trafficStops = nil
			for _, r := range s.replicas {
				r.shutdown()
			}
			s.leader = nil
			s.leaderView.Store(nil)
		})
		s.stopErr = errors.Join(s.stopErr, s.rt.Close())
		<-s.driveDone
	})
	return s.stopErr
}

// startTraffic launches the background attack cocktail. Source and
// victim addresses are drawn from the topology's real hosts, so any
// fabric shape (spine-leaf or fat-tree) works; rates are modest — the
// point is a continuously busy fabric under the control plane, not a
// stress test.
func (s *Service) startTraffic() {
	hosts := s.fab.Topology().Hosts()
	if len(hosts) < 2 {
		return
	}
	gen := traffic.NewGenerator(s.fab, s.cfg.TrafficSeed)
	n := len(hosts)
	ip := func(i int) netip.Addr { return hosts[i%n].IP }
	s.trafficStops = append(s.trafficStops,
		gen.SYNFlood(ip(0), 8, 600),
		gen.PortScan(ip(n/2), ip(0), 150),
		gen.SuperSpreader(ip(n/3), 12, 300),
		gen.SSHBruteForce(ip(n-1), ip(1), 80),
		gen.DNSReflection(ip(2), 4, 200),
		gen.Slowloris(ip(3), 8, 20),
	)
}

// StatusSnapshot is the operator-facing service state (RPC status and
// the HTTP /tasks endpoint).
type StatusSnapshot struct {
	Now            time.Duration `json:"now"`
	Leader         string        `json:"leader"`
	Term           uint64        `json:"term"`
	Takeovers      uint64        `json:"takeovers"`
	Ready          bool          `json:"ready"`
	Draining       bool          `json:"draining"`
	Tasks          []TaskStatus  `json:"tasks"`
	FailedSwitches []int         `json:"failed_switches,omitempty"`
	Migrations     uint64        `json:"migrations"`
	HarvestReports uint64        `json:"harvest_reports"`
}

// TaskStatus is one deployed task's placement view.
type TaskStatus struct {
	Name     string            `json:"name"`
	Seeds    int               `json:"seeds"`
	Switches map[string]string `json:"switches"` // seed ID → switch name
}

// Status snapshots service state on the engine goroutine.
func (s *Service) Status() (*StatusSnapshot, error) {
	st := &StatusSnapshot{}
	err := s.exec(func() {
		st.Now = s.rt.Now()
		if s.leader != nil {
			st.Leader = s.leader.name
		}
		st.Term = s.term
		st.Takeovers = s.takeovers
		st.Migrations = s.sd.Migrations()
		for _, id := range s.sd.FailedSwitches() {
			st.FailedSwitches = append(st.FailedSwitches, int(id))
		}
		for _, name := range s.sd.TaskNames() {
			seeds := s.sd.TaskSeeds(name)
			st.Tasks = append(st.Tasks, TaskStatus{Name: name, Seeds: len(seeds), Switches: seeds})
		}
	})
	if err != nil {
		return nil, err
	}
	st.Ready = s.Ready()
	st.Draining = s.draining.Load()
	st.HarvestReports = s.harvestCount.Load()
	return st, nil
}

// MetricsSnapshot is the /metrics payload: engine, wire, and placement
// gauges of the live fabric.
type MetricsSnapshot struct {
	Now             time.Duration `json:"now"`
	PendingEvents   int           `json:"pending_events"`
	CentralPackets  uint64        `json:"central_packets"`
	CentralBytes    uint64        `json:"central_bytes"`
	Delivered       uint64        `json:"delivered"`
	DroppedInFabric uint64        `json:"dropped_in_fabric"`
	Tasks           int           `json:"tasks"`
	PlacedSeeds     int           `json:"placed_seeds"`
	Migrations      uint64        `json:"migrations"`
	BusPublished    uint64        `json:"bus_published"`
	BusDelivered    uint64        `json:"bus_delivered"`
	BusCoalesced    uint64        `json:"bus_coalesced"`
	BusDropped      uint64        `json:"bus_dropped"`
	// BusDroppedByTopic breaks bus overflow drops down per topic (absent
	// topics never dropped).
	BusDroppedByTopic map[string]uint64 `json:"bus_dropped_by_topic,omitempty"`
	HarvestReports    uint64            `json:"harvest_reports"`
	Term              uint64            `json:"term"`
	Takeovers         uint64            `json:"takeovers"`
}

// Metrics snapshots the live meters on the engine goroutine.
func (s *Service) Metrics() (*MetricsSnapshot, error) {
	m := &MetricsSnapshot{}
	err := s.exec(func() {
		m.Now = s.rt.Now()
		m.PendingEvents = s.rt.Pending()
		cn := s.fab.CentralNet
		m.CentralPackets = cn.Packets()
		m.CentralBytes = cn.Bytes()
		m.Delivered = s.fab.Delivered()
		m.DroppedInFabric = s.fab.DroppedInFabric()
		m.Tasks = len(s.sd.TaskNames())
		m.PlacedSeeds = len(s.sd.Placements())
		m.Migrations = s.sd.Migrations()
		bs := s.broker.Stats()
		m.BusPublished = bs.Published
		m.BusDelivered = bs.Delivered
		m.BusCoalesced = bs.Coalesced
		m.BusDropped = bs.Dropped
		if bs.Dropped > 0 {
			m.BusDroppedByTopic = s.broker.DroppedByTopic()
		}
		m.Term = s.term
		m.Takeovers = s.takeovers
	})
	if err != nil {
		return nil, err
	}
	m.HarvestReports = s.harvestCount.Load()
	return m, nil
}

// PlacementDigest snapshots the seeder's placement digest (soak and the
// concurrency tests pin serial-equivalence through it).
func (s *Service) PlacementDigest() (string, error) {
	var d string
	err := s.exec(func() { d = s.sd.PlacementDigest() })
	return d, err
}

// TaskNames snapshots the deployed task set.
func (s *Service) TaskNames() ([]string, error) {
	var names []string
	err := s.exec(func() { names = s.sd.TaskNames() })
	return names, err
}

// sortedKeys is a tiny helper shared by replica reconciliation.
func sortedKeys(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
