package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/fleet"
	"farm/internal/netmodel"
	"farm/internal/seeder"
	"farm/internal/tasks"
)

// control-churn: the operator's view. A live fleet.Service on the
// wall-clock engine (poll tickers of up to 18 tasks fire in real time
// beside the operators' mutations; packet traffic is off, because seed
// state moved by packets changes placement utility and the serial
// replay that checks the run cannot see it — internal/fleet's own
// serializability test makes the same choice), two closed-loop RPC
// clients over TCP loopback,
// each owning half of the Tab. I catalogue and churning it in rounds:
//
//	submit what it retired last round -> status -> retire a seeded
//	subset of churnSubset owned tasks -> status
//
// The clients meet at a barrier between rounds, so a round has a fixed
// composition (2 x opsPerRound ops). A unit is churnRoundsPerUnit
// consecutive rounds, and every per-op figure is a median over units:
// about every other round contains a GC cycle, so single rounds fall
// into two modes with the median on the edge between them, while five
// rounds always contain two or three. The op count is fixed by --seconds, not by
// the clock: the script, and with it every count, repeats exactly.
const (
	churnClients = 2
	churnSubset  = 5
	opsPerRound  = 2*churnSubset + 2 // per client
	// churnRoundsPerSecond sizes the timed phase: this many rounds per
	// second of --seconds. This sandbox completes about 18 a second, so
	// the timed phase takes under half of --seconds; the serial replay
	// of the audit log that checks the run takes nearly as long again,
	// and set-up and warm-up the rest.
	churnRoundsPerSecond = 8
	churnWarmupRounds    = 4
	churnRoundsPerUnit   = 5
	// churnSetups is how many times the fleet is booted and brought to
	// its initial deployed state; setup_s is the median.
	churnSetups = 5
	opDeadline  = 10 * time.Second
)

func churnConfig() fleet.Config {
	return fleet.Config{
		Spines: 2, Leaves: 4, HostsPerLeaf: 8,
		LeafCapacity: bigCapacity(), SpineCapacity: bigCapacity(),
		PlacementParallel: -1,
		RPCAddr:           "127.0.0.1:0",
	}
}

// msSince is the time since t0 in milliseconds.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

type opKind int

const (
	opSubmit opKind = iota
	opRetire
	opStatus
	numOpKinds
)

// churnClient is one operator and the part of the catalogue it owns.
type churnClient struct {
	cl      *fleet.Client
	owned   []string
	rng     *rand.Rand
	missing []string // owned tasks not deployed: what the next round submits

	lat     [numOpKinds][]float64 // ms, timed rounds only
	retried int
	failed  int
	ops     int
}

// fleetUnderTest is a booted service with its clients connected and
// every catalogue task deployed once.
type fleetUnderTest struct {
	svc     *fleet.Service
	clients []*churnClient
	stopped bool
}

// stop closes the clients and stops the service; only the first call
// does anything, so error paths can defer it.
func (f *fleetUnderTest) stop() error {
	if f.stopped {
		return nil
	}
	f.stopped = true
	var errs []error
	for _, c := range f.clients {
		errs = append(errs, c.cl.Close())
	}
	errs = append(errs, f.svc.Stop())
	return errors.Join(errs...)
}

// bootFleet starts the service, connects the clients and submits the
// whole catalogue: the fleet's set-up, from nothing to steady state.
func bootFleet(seed int64) (*fleetUnderTest, error) {
	svc, err := fleet.New(churnConfig())
	if err != nil {
		return nil, err
	}
	if err := svc.Start(); err != nil {
		return nil, err
	}
	f := &fleetUnderTest{svc: svc}
	for i := 0; i < churnClients; i++ {
		cl, err := fleet.Dial(svc.RPCAddr())
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		f.clients = append(f.clients, &churnClient{
			cl: cl, rng: rand.New(rand.NewSource(seed*7919 + int64(i))),
		})
	}
	// Deal the catalogue round-robin: ownership is disjoint, so the
	// expected final task set is exact.
	for i, name := range tasks.Names() {
		c := f.clients[i%churnClients]
		c.owned = append(c.owned, name)
	}
	for _, c := range f.clients {
		c.missing = append([]string(nil), c.owned...)
		if err := c.submitMissing(false); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// do runs one RPC op, riding out a leadership gap with the retrying
// call, and records its client-observed latency.
func (c *churnClient) do(kind opKind, task string, timed bool) error {
	t0 := time.Now()
	var err error
	switch kind {
	case opSubmit:
		err = c.cl.Submit(task)
	case opRetire:
		err = c.cl.Retire(task)
	case opStatus:
		_, err = c.cl.Status()
	}
	if fleet.IsRetryable(err) {
		c.retried++
		switch kind {
		case opSubmit:
			err = c.cl.SubmitWait(task, opDeadline)
		case opRetire:
			err = c.cl.RetireWait(task, opDeadline)
		}
	}
	c.ops++
	if err != nil {
		c.failed++
		return fmt.Errorf("%v %s: %w", kind, task, err)
	}
	if timed {
		c.lat[kind] = append(c.lat[kind], msSince(t0))
	}
	return nil
}

func (c *churnClient) submitMissing(timed bool) error {
	for _, name := range c.missing {
		if err := c.do(opSubmit, name, timed); err != nil {
			return err
		}
	}
	c.missing = c.missing[:0]
	return nil
}

// round is one unit of the op script.
func (c *churnClient) round(timed bool) error {
	if err := c.submitMissing(timed); err != nil {
		return err
	}
	if err := c.do(opStatus, "", timed); err != nil {
		return err
	}
	for _, i := range c.rng.Perm(len(c.owned))[:churnSubset] {
		if err := c.do(opRetire, c.owned[i], timed); err != nil {
			return err
		}
		c.missing = append(c.missing, c.owned[i])
	}
	sort.Strings(c.missing)
	return c.do(opStatus, "", timed)
}

// roundSample is one timed round, per op.
type roundSample struct {
	WallS, CPUS float64
	Allocs      float64
}

// churnResult is everything one control-churn run measured.
type churnResult struct {
	Setups []float64
	Rounds []roundSample

	Lat        [numOpKinds][]float64 // ms
	Attempted  int
	Failed     int
	Retried    int
	TakeoverMS float64
	Takeovers  uint64
	Lost       []string
	Unexpected []string
	Audit      []fleet.AuditEntry
	ReplayOK   bool
	PingMS     []float64
	Metrics    *fleet.MetricsSnapshot

	PeakRSSMB   float64     // high-water mark when the timed phase ended, before the replay
	ProfileCPUS float64     // process CPU over the profiled timed phase
	Seeder      seederTimes // the audit log's mutations, replayed without the fleet
}

// runChurn boots the fleet churnSetups times (the last boot serves the
// run), warms it up, and drives the timed rounds with one leader kill
// at the halfway barrier. profile, when non-nil, brackets the timed
// phase.
func runChurn(seed int64, seconds int, profile *cpuProfile) (*churnResult, error) {
	res := &churnResult{}
	var f *fleetUnderTest
	for i := 0; i < churnSetups; i++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return nil, fmt.Errorf("stop fleet: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if f, err = bootFleet(seed); err != nil {
			return nil, fmt.Errorf("boot fleet: %w", err)
		}
		res.Setups = append(res.Setups, time.Since(t0).Seconds())
	}
	defer f.stop()

	// eachClient runs fn on every client at once and joins them: the
	// barrier between rounds.
	eachClient := func(fn func(c *churnClient) error) error {
		errs := make([]error, len(f.clients))
		var wg sync.WaitGroup
		for i, c := range f.clients {
			wg.Add(1)
			go func(i int, c *churnClient) {
				defer wg.Done()
				errs[i] = fn(c)
			}(i, c)
		}
		wg.Wait()
		return errors.Join(errs...)
	}

	for r := 0; r < churnWarmupRounds; r++ {
		if err := eachClient(func(c *churnClient) error { return c.round(false) }); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	rounds := seconds * churnRoundsPerSecond
	takeover := make(chan float64, 1)
	if profile != nil {
		if err := profile.start(); err != nil {
			return nil, err
		}
	}
	cpuStart := cpuSeconds()
	var opErr error
	for r := 0; r < rounds && opErr == nil; r++ {
		if r == rounds/2 {
			if err := f.svc.KillLeader(); err != nil {
				return nil, fmt.Errorf("kill leader: %w", err)
			}
			go func() {
				t0 := time.Now()
				for !f.svc.Ready() && time.Since(t0) < opDeadline {
					time.Sleep(time.Millisecond)
				}
				takeover <- msSince(t0)
			}()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0, w0 := cpuSeconds(), time.Now()
		opErr = eachClient(func(c *churnClient) error { return c.round(true) })
		wall, cpu := time.Since(w0).Seconds(), cpuSeconds()-c0
		runtime.ReadMemStats(&m1)
		const ops = churnClients * opsPerRound
		res.Rounds = append(res.Rounds, roundSample{
			WallS: wall / ops, CPUS: cpu / ops, Allocs: float64(m1.Mallocs-m0.Mallocs) / ops,
		})
	}
	res.ProfileCPUS = cpuSeconds() - cpuStart
	res.PeakRSSMB = peakRSSMB()
	if profile != nil {
		profile.stop()
	}
	if opErr != nil {
		// The failed op is already counted on its client; the run goes
		// on to report it.
		fmt.Printf("# control-churn: %v\n", opErr)
	}
	if len(res.Rounds) > rounds/2 {
		res.TakeoverMS = <-takeover
	}

	// Bare RPC round trips on the same connections, after the timed
	// phase: the transport's share of an op.
	for _, c := range f.clients {
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			if err := c.cl.Ping(); err != nil {
				return nil, fmt.Errorf("ping: %w", err)
			}
			res.PingMS = append(res.PingMS, msSince(t0))
		}
	}

	// Reconcile: what the clients left deployed against what the fleet
	// holds.
	expected := map[string]bool{}
	for _, c := range f.clients {
		gone := map[string]bool{}
		for _, m := range c.missing {
			gone[m] = true
		}
		for _, o := range c.owned {
			if !gone[o] {
				expected[o] = true
			}
		}
		for k := range c.lat {
			res.Lat[k] = append(res.Lat[k], c.lat[k]...)
		}
		res.Attempted += c.ops
		res.Failed += c.failed
		res.Retried += c.retried
	}
	actual, err := f.svc.TaskNames()
	if err != nil {
		return nil, err
	}
	for _, name := range actual {
		if !expected[name] {
			res.Unexpected = append(res.Unexpected, name)
		}
		delete(expected, name)
	}
	for name := range expected {
		res.Lost = append(res.Lost, name)
	}
	sort.Strings(res.Lost)
	res.Takeovers = f.svc.Takeovers()
	if res.Metrics, err = f.svc.Metrics(); err != nil {
		return nil, err
	}
	live, err := f.svc.PlacementDigest()
	if err != nil {
		return nil, err
	}
	if res.Audit, err = f.svc.AuditLog(); err != nil {
		return nil, err
	}
	// The service goes before the replay, so its poll tickers do not
	// run beside the mutations being timed.
	if err := f.stop(); err != nil {
		return nil, fmt.Errorf("stop fleet: %w", err)
	}
	replayed, err := replayAudit(res.Audit, &res.Seeder)
	if err != nil {
		return nil, fmt.Errorf("audit replay: %w", err)
	}
	res.ReplayOK = replayed == live
	return res, nil
}

// seederTimes is the cost of the audit log's mutations with no fleet
// and no transport around them.
type seederTimes struct {
	AddMS, RemoveMS []float64
}

// replayAudit applies an audit log serially to a fresh fabric of the
// control-churn shape, directly against seeder.Seeder on a serial
// engine, and returns the placement digest it ends with: equal to the
// live digest when the concurrent run was equivalent to the serial
// order the log records. A takeover replays as the forced full replan
// the promoted replica ran. Each mutation is timed into times.
func replayAudit(log []fleet.AuditEntry, times *seederTimes) (string, error) {
	cfg := churnConfig()
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: cfg.Spines, Leaves: cfg.Leaves, HostsPerLeaf: cfg.HostsPerLeaf,
		LeafCapacity: cfg.LeafCapacity, SpineCapacity: cfg.SpineCapacity,
	})
	if err != nil {
		return "", err
	}
	fab := fabric.New(topo, engine.NewSerial(), fabric.Options{})
	sd := seeder.New(fab, seeder.Options{PlacementParallel: cfg.PlacementParallel})
	for _, e := range log {
		if e.Err != "" {
			continue
		}
		t0 := time.Now()
		switch e.Op {
		case "submit":
			if sd.HasTask(e.Arg) {
				continue
			}
			spec, err := fleet.CatalogueSpec(e.Arg, nil)
			if err != nil {
				return "", err
			}
			if err := sd.AddTask(spec); err != nil {
				return "", fmt.Errorf("seq %d: %w", e.Seq, err)
			}
			times.AddMS = append(times.AddMS, msSince(t0))
		case "retire":
			if !sd.HasTask(e.Arg) {
				continue
			}
			if err := sd.RemoveTask(e.Arg); err != nil {
				return "", fmt.Errorf("seq %d: %w", e.Seq, err)
			}
			times.RemoveMS = append(times.RemoveMS, msSince(t0))
		case "takeover":
			if err := sd.Reoptimize(); err != nil {
				return "", fmt.Errorf("seq %d: %w", e.Seq, err)
			}
		}
	}
	return sd.PlacementDigest(), nil
}

func (k opKind) String() string {
	return [...]string{"submit", "retire", "status"}[k]
}

// runControlChurn runs the workload and turns what it measured into a
// Result: end-to-end metrics on a plain run, the per-layer table (with
// the timed phase CPU-profiled) on a traced one.
func runControlChurn(seed int64, seconds int, traced bool) *Result {
	res := &Result{Workload: churnName, Seed: seed, Seconds: seconds, Traced: traced}
	var prof *cpuProfile
	if traced {
		prof = &cpuProfile{}
	}
	cr, err := runChurn(seed, seconds, prof)
	if err != nil {
		res.Attempted = 1
		res.fail("%v", err)
		res.finish(newMetricSet(nil))
		return res
	}
	res.Attempted = cr.Attempted
	res.Failed = cr.Failed
	if len(cr.Lost) > 0 || len(cr.Unexpected) > 0 {
		res.fail("task reconciliation: lost %v, unexpected %v", cr.Lost, cr.Unexpected)
	}
	if cr.Takeovers != 1 {
		res.fail("takeovers = %d, want exactly 1", cr.Takeovers)
	}
	if !cr.ReplayOK {
		res.fail("serial replay of the audit log does not reproduce the live placement digest")
	}
	if len(cr.Rounds) < churnRoundsPerUnit {
		res.fail("no unit of %d rounds completed", churnRoundsPerUnit)
		res.finish(newMetricSet(nil))
		return res
	}

	// col returns one per-op value per unit: the mean over the unit's
	// rounds, which all have the same number of ops.
	col := func(f func(roundSample) float64) []float64 {
		var xs []float64
		for i := 0; i+churnRoundsPerUnit <= len(cr.Rounds); i += churnRoundsPerUnit {
			sum := 0.0
			for _, r := range cr.Rounds[i : i+churnRoundsPerUnit] {
				sum += f(r)
			}
			xs = append(xs, sum/churnRoundsPerUnit)
		}
		return xs
	}
	wall := col(func(r roundSample) float64 { return r.WallS })
	if !traced {
		m := newMetricSet(endToEnd)
		m.setDist("setup_s", cr.Setups)
		m.setDist("wall_s_per_unit", wall)
		m.setDist("cpu_s_per_unit", col(func(r roundSample) float64 { return r.CPUS }))
		m.setDist("allocs_per_unit", col(func(r roundSample) float64 { return r.Allocs }))
		m.set("peak_rss_mb", cr.PeakRSSMB)
		res.finish(m)
		return res
	}

	m := newMetricSet(perLayer)
	ops := float64(len(cr.Rounds) * churnClients * opsPerRound)
	fold := prof.folded
	for i, layer := range layers {
		m.set(layer+".cpu_s", fold.Layer[i]/ops)
	}
	m.set("runtime.gc_cpu_s", fold.GC/ops)
	m.set("harness.other_cpu_s", fold.Other/ops)
	m.set("harness.process_cpu_s", cr.ProfileCPUS/ops)
	m.set("harness.profile_samples", float64(fold.Samples))
	m.set("harness.units", float64(len(wall)))
	m.set("harness.unit_iqr_ratio", summarize(wall).iqrRatio())
	m.setDist("harness.build_s", cr.Setups)

	var all []float64
	for _, l := range cr.Lat {
		all = append(all, l...)
	}
	m.setDist("fleet.op_ms_p50", all)
	m.set("fleet.op_ms_p90", quantile(sortedCopy(all), 0.9))
	pct, tail, _ := highestPercentile(all)
	m.set("fleet.op_ms_tail", tail)
	m.set("fleet.op_tail_pct", pct)
	m.setDist("fleet.submit_ms_p50", cr.Lat[opSubmit])
	m.setDist("fleet.retire_ms_p50", cr.Lat[opRetire])
	m.setDist("fleet.status_ms_p50", cr.Lat[opStatus])
	m.set("fleet.takeover_ms", cr.TakeoverMS)
	m.set("fleet.takeovers", float64(cr.Takeovers))
	m.set("fleet.retried_ops", float64(cr.Retried))
	m.set("fleet.audit_entries", float64(len(cr.Audit)))
	m.setDist("transport.ping_ms_p50", cr.PingMS)

	// The same mutations with no fleet and no wire around them; what an
	// RPC submit costs beyond that is the fleet's and transport's share.
	m.setDist("seeder.add_ms_p50", cr.Seeder.AddMS)
	m.setDist("seeder.remove_ms_p50", cr.Seeder.RemoveMS)
	m.set("fleet.overhead_ms_p50", median(cr.Lat[opSubmit])-median(cr.Seeder.AddMS))
	m.set("almanac.compile_ms_p50", compileMSp50())

	// Service-lifetime totals, per timed op.
	ms := cr.Metrics
	m.set("fabric.delivered", float64(ms.Delivered)/ops)
	m.set("fabric.dropped", float64(ms.DroppedInFabric)/ops)
	m.set("fabric.central_msgs", float64(ms.CentralPackets)/ops)
	m.set("fabric.central_bytes", float64(ms.CentralBytes)/ops)
	m.set("harvest.reports", float64(ms.HarvestReports)/ops)
	m.set("transport.bus_published", float64(ms.BusPublished)/ops)
	m.set("transport.bus_coalesced", float64(ms.BusCoalesced)/ops)
	m.set("transport.bus_dropped", float64(ms.BusDropped)/ops)
	m.set("seeder.migrations", float64(ms.Migrations)/ops)
	m.set("core.seeds", float64(ms.PlacedSeeds))
	res.finish(m)
	return res
}
