// Package soil implements the M&M seed foundation layer (§II-B-b of the
// FARM paper): the per-switch runtime that executes seeds, tracks their
// resource usage, schedules their triggers, and — critically — aggregates
// polling so that several seeds sharing a polling subject cost the PCIe
// bus one request instead of many.
package soil

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/metrics"
	"farm/internal/netmodel"
)

// ExecModel selects how seeds execute (§VI-E): as threads of the soil
// process communicating through a shared buffer, or as separate
// processes paying per-event context-switch and serialization costs.
type ExecModel int

const (
	// Threads is FARM's preferred model (Fig. 9/10).
	Threads ExecModel = iota + 1
	// Processes models isolated seed processes behind an RPC channel.
	Processes
)

func (m ExecModel) String() string {
	if m == Processes {
		return "processes"
	}
	return "threads"
}

// Options configures a soil.
type Options struct {
	ExecModel ExecModel
	// Aggregation enables shared-subject polling aggregation (on in
	// FARM; off reproduces the naive per-seed polling of Fig. 8).
	Aggregation bool
}

// DefaultOptions is FARM's production configuration.
func DefaultOptions() Options { return Options{ExecModel: Threads, Aggregation: true} }

// SendFunc routes a seed's outgoing message; wired by the seeder.
type SendFunc func(from SeedRef, to core.SendDest, v core.Value)

// SeedRef identifies a deployed seed instance network-wide.
type SeedRef struct {
	Task     string
	Machine  string
	Instance string // distinguishes multiple instances of one machine on a switch ("" for the only one)
	Switch   string // switch name
}

// ID renders the seed's unique identifier on its switch.
func (r SeedRef) ID() string {
	id := r.Task + "/" + r.Machine
	if r.Instance != "" {
		id += "/" + r.Instance
	}
	return id
}

// ExecFunc runs external code for seeds (the exec() hook); wired by the
// deployment (Fig. 6c/d charge a modelled SVR cost through it).
type ExecFunc func(command string, arg core.Value) (core.Value, error)

// Soil is the per-switch runtime.
type Soil struct {
	swID   netmodel.SwitchID
	name   string
	loop   engine.Scheduler
	driver dataplane.Driver
	m      *metrics.Switch // the switch's meter record
	opts   Options

	capacity netmodel.Vector
	used     netmodel.Vector

	seeds  map[string]*seedRuntime // by SeedRef.ID()
	groups map[string]*pollGroup   // by subject key (aggregation on)

	send SendFunc
	exec ExecFunc
	logf func(format string, args ...any)
}

// New creates the soil of one switch in the fabric.
func New(fab *fabric.Fabric, swID netmodel.SwitchID, opts Options) *Soil {
	if opts.ExecModel == 0 {
		opts.ExecModel = Threads
	}
	sw := fab.Topology().Switch(swID)
	return &Soil{
		swID:     swID,
		name:     sw.Name,
		loop:     fab.Sched(),
		driver:   fab.Driver(swID),
		m:        &fab.Meters.Switches[swID],
		opts:     opts,
		capacity: sw.Capacity,
		seeds:    map[string]*seedRuntime{},
		groups:   map[string]*pollGroup{},
		logf:     func(string, ...any) {},
	}
}

// SwitchID returns the switch ID this soil runs on.
func (s *Soil) SwitchID() netmodel.SwitchID { return s.swID }

// SetSendFunc wires outbound message routing (seeder responsibility).
func (s *Soil) SetSendFunc(fn SendFunc) { s.send = fn }

// SetExecFunc wires the external-code hook.
func (s *Soil) SetExecFunc(fn ExecFunc) { s.exec = fn }

// SetLogf wires diagnostics.
func (s *Soil) SetLogf(fn func(string, ...any)) { s.logf = fn }

// Available returns capacity minus allocations.
func (s *Soil) Available() netmodel.Vector { return s.capacity.Sub(s.used) }

// NumSeeds returns the number of deployed seeds.
func (s *Soil) NumSeeds() int { return len(s.seeds) }

// PollsIssued returns the number of poll requests sent to the ASIC —
// with aggregation, fewer than the number of deliveries to seeds.
func (s *Soil) PollsIssued() uint64 { return s.m.PollsIssued }

// PollsDelivered returns poll results delivered to seeds.
func (s *Soil) PollsDelivered() uint64 { return s.m.PollsDelivered }

// ProbesDelivered returns probe packets delivered to seeds.
func (s *Soil) ProbesDelivered() uint64 { return s.m.ProbesDelivered }

// seedRuntime is one deployed seed with its triggers.
type seedRuntime struct {
	ref   SeedRef
	id    string // ref.ID(), the key of Soil.seeds
	seed  core.Runner
	alloc *netmodel.Vector // the grant: never written; a Realloc installs a new one
	subs  []*pollSub
	// timers for time triggers and probe rate limiting
	timeTickers map[string]engine.Ticker
	stopProbes  []func()
	rulesOwned  int
	// removed is set when the seed leaves this soil; a sample of its
	// probe still on the bus then completes to nobody.
	removed bool
}

// pollSub is one seed's subscription to a polling subject.
type pollSub struct {
	rt       *seedRuntime
	pi       *almanac.PollInfo // the trigger, in the seed's Prepared
	interval time.Duration
	group    *pollGroup
	// seen is the completion of the group the subscriber was last handed
	// (pollGroup.n), the base of its next deltas; 0 is none, and deltas
	// against zero. A subscriber that joins a group which has completed
	// starts from the group's latest completion.
	seen      uint64
	lastProbe time.Duration
	// pkt is the probe being delivered, lent to the handler by pointer
	// and overwritten by the next delivery.
	pkt core.PacketVal
}

// subject describes what a poll reads from the ASIC.
type subject struct {
	allPorts bool
	port     int              // single port when > 0
	rule     dataplane.Filter // rule counters otherwise
}

func (sub subject) key() string {
	switch {
	case sub.allPorts:
		return "ports:all"
	case sub.port > 0:
		return "ports:" + strconv.Itoa(sub.port)
	default:
		// Filter.Key is cached after first use, so re-encoding a
		// subject (every wirePoll and every seeder aggregation check)
		// costs a map probe, not a rebuild.
		return "rule:" + sub.rule.Key()
	}
}

// SubjectKey renders the φ_enc polling-subject key of an evaluated
// `what` filter — the identity under which the seeder detects
// aggregation opportunities across tasks (§III-B-c).
func SubjectKey(w almanac.Const) (string, error) {
	subj, err := subjectFromWhat(w)
	if err != nil {
		return "", err
	}
	return subj.key(), nil
}

// subjectFromWhat applies φ_enc: a `port ANY` filter polls every port, a
// pure in-port filter polls that port, anything else polls the counters
// of the TCAM rule with that exact filter (installing it if absent is
// the seed's job via addTCAMRule).
func subjectFromWhat(w almanac.Const) (subject, error) {
	if w.Kind != almanac.ConstFilter {
		return subject{}, fmt.Errorf("soil: poll subject is not a filter")
	}
	if w.PortAny && w.Filter.IsZero() {
		return subject{allPorts: true}, nil
	}
	f := w.Filter
	if f.InPort != 0 && (f == dataplane.Filter{InPort: f.InPort}) {
		return subject{port: f.InPort}, nil
	}
	return subject{rule: f}, nil
}

// pollGroup aggregates all subscriptions to one subject: the subject is
// polled once per group period, the minimum interval over subscribers,
// and each completion is fanned out (§II-B-b "the soil can aggregate
// polling"). Each subscriber keeps its own cadence (§III-A-a), counted in
// completions, not in arrival time: it is handed every k-th completion
// of its group, k = max(1, ⌊interval / period⌋), with k worked out at
// delivery from the current intervals. So the subscriber that sets the
// period is handed every completion, and uneven bus delays shift no one.
// A subscriber's batch has deltas against the completion it was last
// handed; the subscribers due together that last saw the same completion
// form a cadence class and share one batch, read-only.
type pollGroup struct {
	soil   *Soil
	key    string // in Soil.groups
	subs   []*pollSub
	ticker engine.Ticker
	poll   func() // issues the subject's driver read, completing in deliverPorts/deliverRule
	n      uint64 // completions delivered

	// bases holds the batch of each completion some subscriber last saw,
	// and of the latest one (a late joiner's base): the cumulative
	// counters of the next deltas. A batch no subscriber needs any more
	// is spare, and a later completion is written over it, unless a
	// handler kept it (core.Batch). When every holder of a base is due,
	// its batch is rewritten in place.
	bases []pollBase
	spare []*core.Batch
	due   []delivery // one completion's deliveries, kept for reuse
}

// pollBase is the batch of completion seq. holders, due and next are
// worked out afresh for each completion: the subscribers whose base it
// is, how many of them are due, and the batch they are handed.
type pollBase struct {
	seq          uint64
	batch        *core.Batch
	holders, due int
	next         *core.Batch
}

// delivery is one due subscriber, its base (nil: none) and the batch of
// its cadence class.
type delivery struct {
	sub  *pollSub
	base *pollBase
	b    *core.Batch
}

// newPollGroup binds the subject's driver read and its completion once,
// so a fire allocates nothing of its own.
func (s *Soil) newPollGroup(key string, subj subject) *pollGroup {
	g := &pollGroup{soil: s, key: key}
	if subj.allPorts || subj.port > 0 {
		var ports []int // nil polls every port
		if subj.port > 0 {
			ports = []int{subj.port}
		}
		done := g.deliverPorts
		g.poll = func() { s.driver.PollPortStats(ports, done) }
	} else {
		done := g.deliverRule
		g.poll = func() { s.driver.PollRuleStats(subj.rule, done) }
	}
	return g
}

func (g *pollGroup) minInterval() time.Duration {
	min := time.Duration(0)
	for _, sub := range g.subs {
		if min == 0 || sub.interval < min {
			min = sub.interval
		}
	}
	if min <= 0 {
		min = time.Millisecond
	}
	return min
}

func (g *pollGroup) retune() {
	iv := g.minInterval()
	if g.ticker == nil {
		g.ticker = g.soil.loop.Every(iv, g.fire)
	} else if g.ticker.Interval() != iv {
		g.ticker.SetInterval(iv)
	}
}

func (g *pollGroup) stop() {
	if g.ticker != nil {
		g.ticker.Stop()
		g.ticker = nil
	}
}

func (g *pollGroup) fire() {
	s := g.soil
	s.m.PollsIssued++
	s.m.CPU.Charge(metrics.CostPollIssue)
	g.poll()
}

// deliverPorts runs on the poll's PCIe completion. ports and stats are
// the driver's and die with the call; the batches written from them do
// not.
func (g *pollGroup) deliverPorts(ports []int, stats []dataplane.PortStats) {
	s := g.soil
	s.m.CPU.Charge(time.Duration(len(ports)) * metrics.CostPollPerRecord)
	g.deliver(func(prev, into *core.Batch) *core.Batch { return core.NewPortStatsBatch(ports, stats, prev, into) })
}

func (g *pollGroup) deliverRule(st dataplane.RuleStats, ok bool) {
	if !ok {
		return // rule not installed (yet); nothing to deliver
	}
	s := g.soil
	s.m.CPU.Charge(metrics.CostPollPerRecord)
	g.deliver(func(prev, into *core.Batch) *core.Batch { return core.NewRuleStatsBatch(st, prev, into) })
}

// deliver fans completion n out to the subscribers due at it: one batch
// per cadence class, all built before any handler runs, with deltas
// against the class's base (zero for the class that has seen no
// completion). Every due subscriber then holds completion n, whose batch
// becomes their base; the bases left without holders, and the classes'
// other batches, become spare. A completion that finds no subscriber
// left (the last one was removed with the poll in flight) builds
// nothing.
func (g *pollGroup) deliver(build func(prev, into *core.Batch) *core.Batch) {
	if len(g.subs) == 0 {
		return
	}
	s := g.soil
	g.n++
	n := g.n
	period := g.minInterval()
	for i := range g.bases {
		b := &g.bases[i]
		b.holders, b.due, b.next = 0, 0, nil
	}
	g.due = g.due[:0]
	for _, sub := range g.subs {
		// k = 1 below twice the period, so the subscriber that sets the
		// period is due at every completion; k ≥ 2 is a division.
		due := sub.interval-period < period || n%uint64(sub.interval/period) == 0
		b := g.base(sub.seen)
		if b != nil {
			b.holders++
			if due {
				b.due++
			}
		}
		if due {
			g.due = append(g.due, delivery{sub: sub, base: b})
		}
	}
	if len(g.subs) > 1 {
		s.m.CPU.Charge(time.Duration(len(g.due)) * metrics.CostAggregationPerSeed)
	}
	var fresh *core.Batch // the class with no base
	for i := range g.due {
		d := &g.due[i]
		switch b := d.base; {
		case b == nil:
			if fresh == nil {
				fresh = build(nil, g.takeSpare())
			}
			d.b = fresh
		case b.next == nil:
			into := b.batch
			if b.due < b.holders {
				into = g.takeSpare()
			}
			b.next = build(b.batch, into)
			d.b = b.next
		default:
			d.b = b.next
		}
		d.sub.seen = n
	}
	// Completion n's batch is the first class's; the rest are spare.
	latest := fresh
	keep := g.bases[:0]
	for _, b := range g.bases {
		if b.holders > b.due {
			keep = append(keep, pollBase{seq: b.seq, batch: b.batch})
		} else if b.batch != b.next {
			g.spare = append(g.spare, b.batch)
		}
		switch {
		case b.next == nil:
		case latest == nil:
			latest = b.next
		default:
			g.spare = append(g.spare, b.next)
		}
	}
	g.bases = append(keep, pollBase{seq: n, batch: latest})
	for _, d := range g.due {
		s.m.PollsDelivered++
		s.dispatchTrigger(d.sub.rt, d.sub.pi.Name, d.b)
	}
}

// base returns the base of a subscriber that last saw completion seq,
// nil for none.
func (g *pollGroup) base(seq uint64) *pollBase {
	if seq == 0 {
		return nil
	}
	for i := range g.bases {
		if g.bases[i].seq == seq {
			return &g.bases[i]
		}
	}
	return nil
}

// takeSpare hands out a spare batch to write a completion over, nil when
// there is none. A kept one is not written but replaced (core.Batch), so
// it leaves the group either way.
func (g *pollGroup) takeSpare() *core.Batch {
	k := len(g.spare) - 1
	if k < 0 {
		return nil
	}
	b := g.spare[k]
	g.spare = g.spare[:k]
	return b
}

// dispatchTrigger delivers a trigger firing to a seed, charging the
// execution-model costs.
func (s *Soil) dispatchTrigger(rt *seedRuntime, varName string, data core.Value) {
	s.chargeDispatch()
	if err := rt.seed.HandleTrigger(varName, data); err != nil {
		s.logf("soil %s: seed %s: %v", s.name, rt.id, err)
	}
	s.chargeActions(rt)
}

func (s *Soil) chargeDispatch() {
	s.m.CPU.Charge(metrics.CostHandlerDispatch)
	if s.opts.ExecModel == Processes {
		s.m.CPU.Charge(metrics.CostContextSwitch)
	}
}

func (s *Soil) chargeActions(rt *seedRuntime) {
	n := rt.seed.TakeActionCount()
	if n > 0 {
		s.m.CPU.Charge(time.Duration(n) * metrics.CostHandlerPerAction)
	}
}

// Prepared is a compiled program bound to one set of external bindings,
// with the trigger analysis of its machine against them: everything a
// deploy needs that does not depend on the switch. It is read-only, so
// every seed deployed from it, on this soil or any other, shares it (the
// seeder keeps one per machine, for the externals value it was last
// submitted with, and hands it to each of its seeds).
type Prepared struct {
	prog      *core.Program
	externals map[string]core.Value
	polls     []almanac.PollInfo
}

// Prepare analyses prog's triggers against externals: poll subjects and
// intervals, under the same constant environment the seeder analyses the
// machine with. externals is kept, not copied, and must not change
// afterwards.
func Prepare(prog *core.Program, externals map[string]core.Value) (*Prepared, error) {
	cm := prog.Machine()
	polls, err := almanac.AnalyzePolls(cm, core.ConstEnv(cm, externals))
	if err != nil {
		return nil, err
	}
	return &Prepared{prog: prog, externals: externals, polls: polls}, nil
}

// DeployCompiled deploys one instance of a prepared program with the
// grant alloc. id is ref.ID(), which the caller builds once; the soil
// keys the seed by it.
func (s *Soil) DeployCompiled(ref SeedRef, id string, p *Prepared, alloc netmodel.Vector) error {
	return s.deploy(ref, id, p, alloc, nil)
}

// RestoreSeed deploys a migrated seed and resumes it from a snapshot
// (migration: deploy the description, transfer the state, resume, §V-B).
// ref, id and alloc are as DeployCompiled takes them.
func (s *Soil) RestoreSeed(ref SeedRef, id string, p *Prepared, alloc netmodel.Vector, snap core.Snapshot) error {
	return s.deploy(ref, id, p, alloc, &snap)
}

func (s *Soil) deploy(ref SeedRef, id string, p *Prepared, alloc netmodel.Vector, snap *core.Snapshot) error {
	if _, dup := s.seeds[id]; dup {
		return fmt.Errorf("soil %s: seed %s already deployed", s.name, id)
	}
	if !s.Available().AtLeast(alloc, 1e-9) {
		return fmt.Errorf("soil %s: insufficient resources for %s: need %v, have %v",
			s.name, id, alloc, s.Available())
	}
	rt := &seedRuntime{
		ref:         ref,
		id:          id,
		alloc:       &alloc,
		timeTickers: map[string]engine.Ticker{},
	}
	host := &seedHost{soil: s, rt: rt}
	seed, err := p.prog.NewRunner(p.externals, host)
	if err != nil {
		return fmt.Errorf("soil %s: %w", s.name, err)
	}
	rt.seed = seed

	s.seeds[id] = rt
	s.used = s.used.Add(alloc)

	for i := range p.polls {
		pi := &p.polls[i]
		interval, err := s.intervalFor(pi, alloc)
		if err != nil {
			s.removeInternal(id)
			return fmt.Errorf("soil %s: seed %s: %w", s.name, id, err)
		}
		switch pi.TType {
		case almanac.TrigTime:
			s.wireTimeTrigger(rt, pi.Name, interval)
		case almanac.TrigPoll:
			if err := s.wirePoll(rt, pi, interval); err != nil {
				s.removeInternal(id)
				return err
			}
		case almanac.TrigProbe:
			if err := s.wireProbe(rt, pi, interval); err != nil {
				s.removeInternal(id)
				return err
			}
		}
	}

	if snap != nil {
		if err := seed.Restore(*snap); err != nil {
			s.removeInternal(id)
			return fmt.Errorf("soil %s: %w", s.name, err)
		}
		return nil
	}
	s.chargeDispatch()
	if err := seed.Start(); err != nil {
		s.removeInternal(id)
		return fmt.Errorf("soil %s: %w", s.name, err)
	}
	s.chargeActions(rt)
	return nil
}

func (s *Soil) intervalFor(pi *almanac.PollInfo, alloc netmodel.Vector) (time.Duration, error) {
	ms, err := pi.IvalMillisAt(alloc)
	if err != nil {
		return 0, err
	}
	return millis(ms), nil
}

// millis converts a seed's interval in milliseconds to a Duration. Past
// the largest Duration it saturates, the engine's end of time: a
// plain conversion is out of range there (negative on amd64, 0 on 386),
// and the 1 ms floor would make it the fastest poll. Below a nanosecond,
// and NaN, it is that floor.
func millis(ms float64) time.Duration {
	switch ns := ms * float64(time.Millisecond); {
	case ns >= 1<<63:
		return math.MaxInt64
	case ns >= 1:
		return time.Duration(ns)
	}
	return time.Millisecond
}

func (s *Soil) wireTimeTrigger(rt *seedRuntime, varName string, interval time.Duration) {
	rt.timeTickers[varName] = s.loop.Every(interval, func() {
		s.dispatchTrigger(rt, varName, float64(s.loop.Now().Milliseconds()))
	})
}

func (s *Soil) wirePoll(rt *seedRuntime, pi *almanac.PollInfo, interval time.Duration) error {
	subj, err := subjectFromWhat(pi.What)
	if err != nil {
		return fmt.Errorf("soil %s: seed %s trigger %s: %w", s.name, rt.id, pi.Name, err)
	}
	sub := &pollSub{rt: rt, pi: pi, interval: interval}
	rt.subs = append(rt.subs, sub)

	key := subj.key()
	if !s.opts.Aggregation {
		// Without aggregation every subscription polls on its own.
		key = fmt.Sprintf("%s#%s/%s", key, rt.id, pi.Name)
	}
	g, ok := s.groups[key]
	if !ok {
		g = s.newPollGroup(key, subj)
		s.groups[key] = g
	}
	sub.group = g
	sub.seen = g.n
	g.subs = append(g.subs, sub)
	g.retune()
	return nil
}

func (s *Soil) wireProbe(rt *seedRuntime, pi *almanac.PollInfo, interval time.Duration) error {
	if pi.What.Kind != almanac.ConstFilter {
		return fmt.Errorf("soil %s: probe %s needs a filter subject", s.name, pi.Name)
	}
	f := pi.What.Filter
	sub := &pollSub{rt: rt, pi: pi, interval: interval}
	rt.subs = append(rt.subs, sub)
	stop := s.driver.StartSampling(f, func(p dataplane.Packet) {
		if rt.removed {
			return
		}
		// The probe interval is a lower bound on the delivery period
		// (§III-A-a): excess samples are dropped at the soil.
		now := s.loop.Now()
		if sub.lastProbe != 0 && now-sub.lastProbe < sub.interval {
			return
		}
		sub.lastProbe = now
		s.m.ProbesDelivered++
		s.m.CPU.Charge(metrics.CostSampleProcess)
		sub.pkt = core.PacketVal(p)
		s.dispatchTrigger(rt, pi.Name, &sub.pkt)
	})
	rt.stopProbes = append(rt.stopProbes, stop)
	return nil
}

// Remove stops and removes a seed, releasing its resources.
func (s *Soil) Remove(id string) error {
	if _, ok := s.seeds[id]; !ok {
		return fmt.Errorf("soil %s: no seed %s", s.name, id)
	}
	s.removeInternal(id)
	return nil
}

func (s *Soil) removeInternal(id string) {
	rt, ok := s.seeds[id]
	if !ok {
		return
	}
	for _, tk := range rt.timeTickers {
		tk.Stop()
	}
	for _, stop := range rt.stopProbes {
		stop()
	}
	for _, sub := range rt.subs {
		if sub.group == nil {
			continue
		}
		g := sub.group
		for i, x := range g.subs {
			if x == sub {
				g.subs = append(g.subs[:i], g.subs[i+1:]...)
				break
			}
		}
		if len(g.subs) == 0 {
			g.stop()
			delete(s.groups, g.key)
		} else {
			g.retune()
		}
	}
	s.used = s.used.Sub(*rt.alloc)
	rt.removed = true
	delete(s.seeds, id)
}

// SnapshotSeed captures a seed's state for migration.
func (s *Soil) SnapshotSeed(id string) (core.Snapshot, error) {
	rt, ok := s.seeds[id]
	if !ok {
		return core.Snapshot{}, fmt.Errorf("soil %s: no seed %s", s.name, id)
	}
	return rt.seed.Snapshot(), nil
}

// Realloc changes a seed's resource allocation, retunes its triggers
// (polling intervals may depend on resources), and fires its realloc
// event (§III-A-c). alloc becomes the seed's grant in place of the one
// it replaces.
func (s *Soil) Realloc(id string, alloc netmodel.Vector) error {
	rt, ok := s.seeds[id]
	if !ok {
		return fmt.Errorf("soil %s: no seed %s", s.name, id)
	}
	// The capacity minus what the other seeds hold must cover alloc.
	if !s.capacity.Sub(s.used.Sub(*rt.alloc)).AtLeast(alloc, 1e-9) {
		return fmt.Errorf("soil %s: insufficient resources to realloc %s to %v", s.name, id, alloc)
	}
	s.used = s.used.Sub(*rt.alloc).Add(alloc)
	rt.alloc = &alloc
	// Retune resource-dependent polling rates.
	for _, sub := range rt.subs {
		if iv, err := s.intervalFor(sub.pi, alloc); err == nil {
			sub.interval = iv
			if sub.group != nil {
				sub.group.retune()
			}
		}
	}
	s.chargeDispatch()
	if err := rt.seed.HandleRealloc(); err != nil {
		return err
	}
	s.chargeActions(rt)
	return nil
}

// DeliverToMachine hands a message to every deployed seed of the given
// machine type (broadcast within the switch). task "" matches any task.
func (s *Soil) DeliverToMachine(task, machine string, from core.MsgSource, v core.Value) {
	for _, rt := range s.seedsOf(machine) {
		if task != "" && rt.ref.Task != task {
			continue
		}
		s.chargeDispatch()
		if err := rt.seed.HandleRecv(from, v); err != nil {
			s.logf("soil %s: seed %s: %v", s.name, rt.id, err)
		}
		s.chargeActions(rt)
	}
}

func (s *Soil) seedsOf(machine string) []*seedRuntime {
	ids := make([]string, 0, len(s.seeds))
	for id := range s.seeds {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []*seedRuntime
	for _, id := range ids {
		if rt := s.seeds[id]; rt.ref.Machine == machine {
			out = append(out, rt)
		}
	}
	return out
}

// SeedIDs returns the IDs of all deployed seeds, sorted.
func (s *Soil) SeedIDs() []string {
	ids := make([]string, 0, len(s.seeds))
	for id := range s.seeds {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// SeedState reports a deployed seed's current state name.
func (s *Soil) SeedState(id string) (string, error) {
	rt, ok := s.seeds[id]
	if !ok {
		return "", fmt.Errorf("soil %s: no seed %s", s.name, id)
	}
	return rt.seed.State(), nil
}

// SeedVar reads a machine variable of a deployed seed (debug/tests).
func (s *Soil) SeedVar(id, name string) (core.Value, bool) {
	rt, ok := s.seeds[id]
	if !ok {
		return nil, false
	}
	return rt.seed.Var(name)
}

// --- core.Host implementation ---

// seedHost adapts one seedRuntime to the core.Host interface.
type seedHost struct {
	soil *Soil
	rt   *seedRuntime
}

func (h *seedHost) Now() time.Duration { return h.soil.loop.Now() }

func (h *seedHost) Resources() *netmodel.Vector { return h.rt.alloc }

// AddTCAMRule, RemoveTCAMRule and GetTCAMRule keep the seed's TCAM
// budget; the driver applies each operation and charges the bus for it.
func (h *seedHost) AddTCAMRule(r dataplane.Rule) error {
	replacing := h.soil.driver.HasRule(r.Filter)
	budget := int(h.rt.alloc[netmodel.ResTCAM])
	if !replacing && h.rt.rulesOwned >= budget {
		return fmt.Errorf("soil %s: seed %s exceeded its TCAM allocation (%d entries)",
			h.soil.name, h.rt.id, budget)
	}
	if err := h.soil.driver.AddRule(r); err != nil {
		return err
	}
	if !replacing {
		h.rt.rulesOwned++
	}
	return nil
}

func (h *seedHost) RemoveTCAMRule(f dataplane.Filter) bool {
	ok := h.soil.driver.RemoveRule(f)
	if ok && h.rt.rulesOwned > 0 {
		h.rt.rulesOwned--
	}
	return ok
}

func (h *seedHost) GetTCAMRule(f dataplane.Filter) (dataplane.Rule, bool) {
	return h.soil.driver.GetRule(f)
}

func (h *seedHost) Send(to core.SendDest, v core.Value) {
	if h.soil.send == nil {
		h.soil.logf("soil %s: seed %s: send with no route configured", h.soil.name, h.rt.id)
		return
	}
	h.soil.send(h.rt.ref, to, v)
}

func (h *seedHost) SetTriggerInterval(trigger string, ivalMillis float64) {
	d := millis(ivalMillis)
	for _, sub := range h.rt.subs {
		if sub.pi.Name == trigger {
			sub.interval = d
			if sub.group != nil {
				sub.group.retune()
			}
			return
		}
	}
	// Time triggers have tickers instead of subscriptions.
	if tk, ok := h.rt.timeTickers[trigger]; ok {
		tk.SetInterval(d)
	}
}

func (h *seedHost) Exec(command string, arg core.Value) (core.Value, error) {
	if h.soil.exec == nil {
		return nil, fmt.Errorf("soil %s: exec %q: no exec hook configured", h.soil.name, command)
	}
	return h.soil.exec(command, arg)
}

func (h *seedHost) Log(format string, args ...any) {
	h.soil.logf("seed %s: "+format, append([]any{h.rt.id}, args...)...)
}
