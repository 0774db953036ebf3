// Package seeder implements FARM's centralized M&M control instance
// (§II-C-b of the paper): it admits tasks written in Almanac, resolves
// their place directives against the SDN controller's topology view,
// runs the static analyses that feed placement optimization, invokes the
// optimizer across all co-deployed tasks, ships seeds to soils (each
// machine compiled and passed through its XML wire form once, store.go),
// applies reallocations, and live-migrates seeds (deploy description →
// transfer state → resume, §V-B).
package seeder

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/harvest"
	"farm/internal/netmodel"
	"farm/internal/placement"
	"farm/internal/poly"
	"farm/internal/soil"
)

// TaskSpec is what a network operator submits: Almanac source, external
// variable bindings, and optional harvester logic.
type TaskSpec struct {
	Name   string
	Source string
	// Machines restricts which machines of the program deploy
	// (nil = all machines in the source).
	Machines []string
	// Externals binds external variables per machine name.
	Externals map[string]map[string]core.Value
	// Harvester is the task's centralized logic (nil = collect-only
	// harvester that just records reports).
	Harvester harvest.Logic
}

// Options configures a Seeder.
type Options struct {
	Soil soil.Options
	// MigrationCost feeds the optimization model (placement.Input's).
	MigrationCost float64
	// Deprecated: placement runs serially; the value is ignored. bench/e2e still sets it.
	PlacementParallel int
	Logf              func(format string, args ...any)
}

// stateTransferBytesPerSec models migration state transfer speed.
const stateTransferBytesPerSec = 10 << 20

// Seeder is the centralized control instance.
type Seeder struct {
	fab    *fabric.Fabric
	opts   Options
	soils  map[netmodel.SwitchID]*soil.Soil
	byName map[string]netmodel.SwitchID

	tasks      map[string]*task
	harvesters map[string]*harvest.Harvester
	// programs compiles each task source once, for every seed and every
	// resubmission.
	programs *programStore
	// placements holds the optimizer's current assignment per seed ID.
	placements map[string]placement.Assignment
	// failed switches are excluded from placement (fault tolerance).
	failed map[netmodel.SwitchID]bool

	// touched accumulates switches whose load or availability changed
	// since the last successful optimization — the dirty set handed to
	// the optimizer's warm-start path. nil (before the first solve, and
	// after Reoptimize or RecoverSwitch) makes the next solve full.
	touched map[netmodel.SwitchID]bool
	// droppedLast records which tasks the last solve dropped. A warm
	// replan that drops a task the previous solve placed (or one never
	// solved at all) may just be hitting its pins, not real capacity —
	// such fresh drops trigger one full re-solve before they stand.
	droppedLast map[string]bool

	migrations uint64
	// freeMsgs holds the control-message records not in flight.
	freeMsgs []*ctlMsg
	logf     func(string, ...any)
	// beforeSolve, when set (tests only), sees every placement input
	// just before the optimizer does.
	beforeSolve func(*placement.Input)
}

type task struct {
	name  string
	spec  TaskSpec
	src   *storedSource // referenced in sd.programs while the task lives
	seeds []*seedInst
}

// seedInst is one resolved seed (one element of S^t).
type seedInst struct {
	id  string // ref.ID() (task/machine[/instance]), built once at resolve
	ref soil.SeedRef
	// m is the machine as compiled once for its source: first deploy and
	// migration restore run the same program.
	m          *storedMachine
	externals  map[string]core.Value
	candidates []netmodel.SwitchID
	// utilByState: the seeder analyzes every state's util so
	// re-optimizations can use the seed's current state (§III-B).
	utilByState map[string]poly.Utility
	polls       []placement.PollDemand
	// baked holds the seed's step-3 LP fragments per utility state, baked
	// the first time a solve sees the seed in that state and reused by
	// every later one; they die with the seed. A seed has a state or two,
	// so a slice, not a map.
	baked []stateBaked
	// kin is the first seed resolved from the same machine: it shares
	// utilByState and polls, so its fragments lend their rows to this
	// seed's.
	kin        *seedInst
	deployedAt netmodel.SwitchID
	deployed   bool
}

// New builds a seeder over the fabric, creating one soil per switch.
func New(fab *fabric.Fabric, opts Options) *Seeder {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Soil == (soil.Options{}) {
		opts.Soil = soil.DefaultOptions()
	}
	sd := &Seeder{
		fab:         fab,
		opts:        opts,
		soils:       map[netmodel.SwitchID]*soil.Soil{},
		byName:      map[string]netmodel.SwitchID{},
		tasks:       map[string]*task{},
		harvesters:  map[string]*harvest.Harvester{},
		programs:    newProgramStore(),
		placements:  map[string]placement.Assignment{},
		failed:      map[netmodel.SwitchID]bool{},
		droppedLast: map[string]bool{},
		logf:        opts.Logf,
	}
	for _, sw := range fab.Topology().Switches() {
		s := soil.New(fab, sw.ID, opts.Soil)
		s.SetLogf(opts.Logf)
		s.SetSendFunc(sd.route)
		sd.soils[sw.ID] = s
		sd.byName[sw.Name] = sw.ID
	}
	return sd
}

// Soil exposes a switch's soil (tests, metrics, exec-hook wiring).
func (sd *Seeder) Soil(id netmodel.SwitchID) *soil.Soil { return sd.soils[id] }

// SetExecFunc wires the exec() hook on every soil.
func (sd *Seeder) SetExecFunc(fn soil.ExecFunc) {
	for _, s := range sd.soils {
		s.SetExecFunc(fn)
	}
}

// Harvester returns a task's harvester.
func (sd *Seeder) Harvester(taskName string) (*harvest.Harvester, bool) {
	h, ok := sd.harvesters[taskName]
	return h, ok
}

// Migrations returns how many live migrations the seeder has performed.
func (sd *Seeder) Migrations() uint64 { return sd.migrations }

// TaskNames lists the currently deployed tasks, sorted.
func (sd *Seeder) TaskNames() []string {
	out := make([]string, 0, len(sd.tasks))
	for n := range sd.tasks {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HasTask reports whether a task is currently deployed.
func (sd *Seeder) HasTask(name string) bool {
	_, ok := sd.tasks[name]
	return ok
}

// TaskSeeds returns, for one task, every deployed seed's ID and the
// name of the switch hosting it (the operator-API view of a task).
func (sd *Seeder) TaskSeeds(name string) map[string]string {
	t, ok := sd.tasks[name]
	if !ok {
		return nil
	}
	out := make(map[string]string, len(t.seeds))
	for _, s := range t.seeds {
		if s.deployed {
			out[s.id] = sd.fab.Topology().Switch(s.deployedAt).Name
		}
	}
	return out
}

// PlacementDigest folds the seeder's live placement state (every
// assignment plus the cumulative migration count) into the same FNV-1a
// digest placement.Result uses, so two seeders that applied equivalent
// mutation sequences can be compared byte-for-byte.
func (sd *Seeder) PlacementDigest() string {
	res := placement.Result{Placed: sd.placements, Migrations: int(sd.migrations)}
	return res.Digest()
}

// Placements returns the current seed ID → assignment map (copy).
func (sd *Seeder) Placements() map[string]placement.Assignment {
	out := make(map[string]placement.Assignment, len(sd.placements))
	for k, v := range sd.placements {
		out[k] = v
	}
	return out
}

// SeedSwitch reports where a seed currently runs.
func (sd *Seeder) SeedSwitch(seedID string) (netmodel.SwitchID, bool) {
	a, ok := sd.placements[seedID]
	return a.Switch, ok
}

// AddTask compiles, resolves, optimizes, and deploys a task (§III-B's
// three steps followed by §IV placement and §V deployment).
func (sd *Seeder) AddTask(spec TaskSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("seeder: task needs a name")
	}
	if _, dup := sd.tasks[spec.Name]; dup {
		return fmt.Errorf("seeder: task %s already deployed", spec.Name)
	}
	src, err := sd.programs.acquire(spec.Source)
	if err != nil {
		return fmt.Errorf("seeder: task %s: %w", spec.Name, err)
	}
	t := &task{name: spec.Name, spec: spec, src: src}
	if err := sd.resolveTask(t); err != nil {
		sd.programs.release(src)
		return err
	}
	sd.tasks[spec.Name] = t
	h := harvest.New(spec.Name, spec.Harvester)
	sd.harvesters[spec.Name] = h
	h.Bind(&harvesterCtx{sd: sd, task: spec.Name})

	if err := sd.optimizeAndApply(); err != nil {
		// Roll the task back: a seed that failed to deploy must not leave
		// the ones that did running where no RemoveTask can reach them.
		sd.retire(t)
		return fmt.Errorf("seeder: task %s: %w", spec.Name, err)
	}
	// The whole task may have been dropped by the optimizer.
	placed := 0
	for _, s := range t.seeds {
		if s.deployed {
			placed++
		}
	}
	if placed == 0 {
		sd.retire(t)
		return fmt.Errorf("seeder: task %s does not fit the fabric (dropped by placement)", spec.Name)
	}
	return nil
}

// resolveTask takes the task's machines from the program store and
// resolves each into seeds.
func (sd *Seeder) resolveTask(t *task) error {
	machineNames := t.spec.Machines
	if machineNames == nil {
		machineNames = t.src.names
	}
	for _, mn := range machineNames {
		m, err := t.src.machine(mn)
		if err != nil {
			return fmt.Errorf("seeder: task %s: %w", t.name, err)
		}
		for _, warn := range m.warnings {
			sd.logf("seeder: task %s: warning: %s", t.name, warn)
		}
		seeds, err := sd.resolveMachine(t, m, t.spec.Externals[mn])
		if err != nil {
			return fmt.Errorf("seeder: task %s: machine %s: %w", t.name, mn, err)
		}
		t.seeds = append(t.seeds, seeds...)
	}
	if len(t.seeds) == 0 {
		return fmt.Errorf("seeder: task %s resolves to no seeds", t.name)
	}
	return nil
}

// RemoveTask undeploys a task's seeds and harvester.
func (sd *Seeder) RemoveTask(name string) error {
	t, ok := sd.tasks[name]
	if !ok {
		return fmt.Errorf("seeder: no task %s", name)
	}
	sd.retire(t)
	return nil
}

// retire undeploys whatever seeds of t are deployed and forgets the
// task.
func (sd *Seeder) retire(t *task) {
	for _, s := range t.seeds {
		if s.deployed {
			if err := sd.soils[s.deployedAt].Remove(s.id); err != nil {
				sd.logf("seeder: remove %s: %v", s.id, err)
			}
			// The freed capacity is worth revisiting on the next replan.
			sd.touch(s.deployedAt)
			delete(sd.placements, s.id)
		}
	}
	sd.forget(t)
}

// forget drops a task whose seeds are gone from the seeder's books and
// releases its programs.
func (sd *Seeder) forget(t *task) {
	delete(sd.tasks, t.name)
	delete(sd.harvesters, t.name)
	sd.programs.release(t.src)
}

// Reoptimize re-runs global placement over all tasks (called when
// resources deplete or workloads change) as a full solve: nothing is
// pinned. It is not a from-scratch solve, since greedy still prefers
// each seed's current switch (ROADMAP item 12). AddTask, RemoveTask and
// FailSwitch warm-start instead.
func (sd *Seeder) Reoptimize() error {
	sd.touched = nil
	return sd.optimizeAndApply()
}

// touch marks a switch for the next replan; a full one needs no marks.
func (sd *Seeder) touch(id netmodel.SwitchID) {
	if sd.touched != nil {
		sd.touched[id] = true
	}
}

// BroadcastToTask delivers a harvester-sourced message to every seed of
// the given machine within a task — the operator-side equivalent of a
// harvester's SendToSeeds broadcast.
func (sd *Seeder) BroadcastToTask(task, machine string, v core.Value) error {
	if _, ok := sd.tasks[task]; !ok {
		return fmt.Errorf("seeder: no task %s", task)
	}
	(&harvesterCtx{sd: sd, task: task}).SendToSeeds(machine, "", v)
	return nil
}

// resolveMachine performs the seeder's first step for a machine:
// placement directives → seed instances with candidate sets (π, §III-B),
// plus the second and third steps (utility and poll analysis).
func (sd *Seeder) resolveMachine(t *task, m *storedMachine, externals map[string]core.Value) ([]*seedInst, error) {
	cm := m.cm
	env := core.ConstEnv(cm, externals)

	placements := cm.Placements
	if len(placements) == 0 {
		placements = []almanac.Placement{{Quant: almanac.QAll}}
	}
	var candidateSets [][]netmodel.SwitchID
	for _, pl := range placements {
		sets, err := sd.resolvePlacement(pl, env)
		if err != nil {
			return nil, err
		}
		candidateSets = append(candidateSets, sets...)
	}
	if len(candidateSets) == 0 {
		return nil, fmt.Errorf("placement resolves to no switches")
	}

	// Step 2: utility per state.
	utilByState := map[string]poly.Utility{}
	for _, st := range cm.States {
		u, err := almanac.AnalyzeUtility(st.Util, env)
		if err != nil {
			return nil, fmt.Errorf("state %s: %w", st.Name, err)
		}
		utilByState[st.Name] = u
	}

	// Step 3: poll variables → subjects and rates.
	pis, err := almanac.AnalyzePolls(cm, env)
	if err != nil {
		return nil, err
	}
	var polls []placement.PollDemand
	for _, pi := range pis {
		if pi.TType == almanac.TrigTime {
			continue // time triggers do not touch the ASIC
		}
		if pi.What.Kind != almanac.ConstFilter {
			return nil, fmt.Errorf("trigger %s: subject not resolvable at deployment", pi.Name)
		}
		key, err := soil.SubjectKey(pi.What)
		if err != nil {
			return nil, fmt.Errorf("trigger %s: %w", pi.Name, err)
		}
		polls = append(polls, placement.PollDemand{Subject: key, Rate: pi.RatePerSec})
	}

	var seeds []*seedInst
	for i, cands := range candidateSets {
		inst := ""
		if len(candidateSets) > 1 {
			inst = fmt.Sprintf("i%d", i)
		}
		ref := soil.SeedRef{Task: t.name, Machine: cm.Name, Instance: inst}
		si := &seedInst{
			id:          ref.ID(),
			ref:         ref,
			m:           m,
			externals:   externals,
			candidates:  cands,
			utilByState: utilByState,
			polls:       polls,
		}
		seeds = append(seeds, si)
	}
	for _, si := range seeds {
		si.kin = seeds[0]
	}
	return seeds, nil
}

// resolvePlacement interprets one place directive into candidate sets.
func (sd *Seeder) resolvePlacement(pl almanac.Placement, env map[string]almanac.Const) ([][]netmodel.SwitchID, error) {
	topo := sd.fab.Topology()
	all := topo.SwitchIDs()

	switch {
	case !pl.HasRange && len(pl.Switches) == 0:
		// Case (a): all switches.
		if pl.Quant == almanac.QAll {
			sets := make([][]netmodel.SwitchID, len(all))
			for i, id := range all {
				sets[i] = []netmodel.SwitchID{id}
			}
			return sets, nil
		}
		return [][]netmodel.SwitchID{all}, nil

	case !pl.HasRange:
		// Case (b): explicit switch names or ids.
		var ids []netmodel.SwitchID
		for _, ex := range pl.Switches {
			c, err := almanac.EvalConst(ex, env)
			if err != nil {
				return nil, err
			}
			switch c.Kind {
			case almanac.ConstStr:
				id, ok := sd.byName[c.Str]
				if !ok {
					return nil, fmt.Errorf("unknown switch %q in place directive", c.Str)
				}
				ids = append(ids, id)
			case almanac.ConstNum:
				id := netmodel.SwitchID(c.Num)
				if int(id) < 0 || int(id) >= topo.NumSwitches() {
					return nil, fmt.Errorf("switch id %d out of range", int(id))
				}
				ids = append(ids, id)
			default:
				return nil, fmt.Errorf("place directive switch must be a name or id")
			}
		}
		if pl.Quant == almanac.QAll {
			sets := make([][]netmodel.SwitchID, len(ids))
			for i, id := range ids {
				sets[i] = []netmodel.SwitchID{id}
			}
			return sets, nil
		}
		return [][]netmodel.SwitchID{ids}, nil
	}

	// Case (c): range over paths.
	paths := []netmodel.Path{}
	if pl.PathExpr == nil {
		// All leaf-to-leaf paths.
		for _, a := range all {
			for _, b := range all {
				if topo.Switch(a).Role == netmodel.Leaf && topo.Switch(b).Role == netmodel.Leaf && a != b {
					paths = append(paths, topo.Paths(a, b)...)
				}
			}
		}
	} else {
		c, err := almanac.EvalConst(pl.PathExpr, env)
		if err != nil {
			return nil, err
		}
		if c.Kind != almanac.ConstFilter {
			return nil, fmt.Errorf("path expression must be a filter")
		}
		src := c.Filter.SrcPrefix
		dst := c.Filter.DstPrefix
		if !src.IsValid() || !dst.IsValid() {
			return nil, fmt.Errorf("path filter needs srcIP and dstIP (φ_path)")
		}
		paths = topo.PathsBetweenPrefixes(src, dst)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no paths match the place directive")
	}
	anchor := netmodel.Receiver
	switch pl.Anchor {
	case "sender":
		anchor = netmodel.Sender
	case "midpoint":
		anchor = netmodel.Midpoint
	case "receiver", "":
		anchor = netmodel.Receiver
	}
	var op netmodel.RangeOp
	switch pl.RangeOp {
	case "==":
		op = netmodel.RangeEQ
	case "<=":
		op = netmodel.RangeLE
	case ">=":
		op = netmodel.RangeGE
	case "<":
		op = netmodel.RangeLT
	case ">":
		op = netmodel.RangeGT
	default:
		return nil, fmt.Errorf("unknown range operator %q", pl.RangeOp)
	}
	bc, err := almanac.EvalConst(pl.RangeBound, env)
	if err != nil {
		return nil, err
	}
	if bc.Kind != almanac.ConstNum {
		return nil, fmt.Errorf("range bound must be numeric")
	}
	quant := netmodel.Any
	if pl.Quant == almanac.QAll {
		quant = netmodel.All
	}
	sets := netmodel.CandidateSets(paths, quant, anchor, op, int(bc.Num))
	if len(sets) == 0 {
		return nil, fmt.Errorf("range placement selects no switches")
	}
	return sets, nil
}

// optimizeAndApply rebuilds the global placement input from every task
// and applies the optimizer's decisions to the soils.
func (sd *Seeder) optimizeAndApply() error {
	in := sd.buildInput()
	res, err := sd.solve(in)
	if err != nil {
		return err
	}
	if in.Touched != nil && sd.freshDrop(res) {
		// The warm replan dropped a task the previous solve placed (or
		// one it never saw). Pins can starve a fitting task, so give
		// the full solver one shot before the drop stands.
		in.Touched = nil
		if res, err = sd.solve(in); err != nil {
			return err
		}
	}
	if err := sd.apply(res); err != nil {
		return err
	}
	sd.droppedLast = map[string]bool{}
	for _, t := range res.DroppedTasks {
		sd.droppedLast[t] = true
	}
	// The dirty set is consumed; future replans may warm-start from the
	// placement just applied.
	sd.touched = map[netmodel.SwitchID]bool{}
	return nil
}

func (sd *Seeder) solve(in *placement.Input) (*placement.Result, error) {
	if sd.beforeSolve != nil {
		sd.beforeSolve(in)
	}
	return placement.Heuristic(in)
}

// freshDrop reports whether res drops a task the previous solve did
// not — the signal that warm-start pinning, not capacity, may be what
// starved it.
func (sd *Seeder) freshDrop(res *placement.Result) bool {
	for _, t := range res.DroppedTasks {
		if !sd.droppedLast[t] {
			return true
		}
	}
	return false
}

func (sd *Seeder) buildInput() *placement.Input {
	in := &placement.Input{
		MigrationCost: sd.opts.MigrationCost,
		Current:       map[string]placement.Assignment{},
	}
	if sd.touched != nil {
		in.Touched = make([]netmodel.SwitchID, 0, len(sd.touched))
		for id := range sd.touched {
			in.Touched = append(in.Touched, id)
		}
		sort.Slice(in.Touched, func(i, j int) bool { return in.Touched[i] < in.Touched[j] })
	}
	in.Switches = sd.liveSwitches()
	names := make([]string, 0, len(sd.tasks))
	for n := range sd.tasks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := sd.tasks[n]
		for _, s := range t.seeds {
			state := s.m.cm.InitialState
			if s.deployed {
				if st, err := sd.soils[s.deployedAt].SeedState(s.id); err == nil {
					if _, ok := s.utilByState[st]; ok {
						state = st
					}
				}
				in.Current[s.id] = sd.placements[s.id]
			}
			cands := sd.filterCandidates(s.candidates)
			if len(cands) == 0 {
				// Every candidate switch failed: the seed cannot place;
				// leave it out so C1 drops its task.
				continue
			}
			in.Seeds = append(in.Seeds, placement.SeedSpec{
				ID:         s.id,
				Task:       t.name,
				Machine:    s.m.cm.Name,
				Candidates: cands,
				Utility:    s.utilByState[state],
				Polls:      s.polls,
			})
			spec := &in.Seeds[len(in.Seeds)-1]
			spec.Baked = s.bakedFor(state, spec)
		}
	}
	return in
}

type stateBaked struct {
	state string
	baked *placement.Baked
}

// bakedFor returns the seed's LP fragments in the given state, baking
// them on first use.
func (s *seedInst) bakedFor(state string, spec *placement.SeedSpec) *placement.Baked {
	if b := s.bakedIn(state); b != nil {
		return b
	}
	b := placement.Bake(spec, s.kin.bakedIn(state))
	s.baked = append(s.baked, stateBaked{state, b})
	return b
}

func (s *seedInst) bakedIn(state string) *placement.Baked {
	for _, sb := range s.baked {
		if sb.state == state {
			return sb.baked
		}
	}
	return nil
}

// apply reconciles soils with an optimization result. Resources are
// released before they are claimed: evictions and shrinking
// reallocations run first, then new deployments, migrations, and
// growing reallocations.
func (sd *Seeder) apply(res *placement.Result) error {
	names := make([]string, 0, len(sd.tasks))
	for n := range sd.tasks {
		names = append(names, n)
	}
	sort.Strings(names)

	// Pass 1: release resources.
	for _, n := range names {
		for _, s := range sd.tasks[n].seeds {
			a, placed := res.Placed[s.id]
			switch {
			case !placed && s.deployed:
				// Evicted (task dropped in re-optimization).
				if err := sd.soils[s.deployedAt].Remove(s.id); err != nil {
					sd.logf("seeder: evict %s: %v", s.id, err)
				}
				s.deployed = false
				delete(sd.placements, s.id)
			case placed && s.deployed && s.deployedAt == a.Switch:
				old := sd.placements[s.id].Alloc
				if !sameAlloc(old, a.Alloc) && old.AtLeast(a.Alloc, 1e-9) {
					// Shrinking: safe to apply before anything claims
					// the freed capacity.
					if err := sd.soils[a.Switch].Realloc(s.id, a.Alloc); err != nil {
						sd.logf("seeder: realloc %s: %v", s.id, err)
					}
					sd.placements[s.id] = a
				}
			}
		}
	}

	// Pass 2: claim resources.
	var firstErr error
	for _, n := range names {
		for _, s := range sd.tasks[n].seeds {
			a, placed := res.Placed[s.id]
			if !placed {
				continue
			}
			switch {
			case !s.deployed:
				if err := sd.deploySeed(s, a); err != nil && firstErr == nil {
					firstErr = err
				}
			case s.deployedAt != a.Switch:
				if err := sd.migrateSeed(s, a); err != nil && firstErr == nil {
					firstErr = err
				}
			default:
				if !sameAlloc(sd.placements[s.id].Alloc, a.Alloc) {
					if err := sd.soils[a.Switch].Realloc(s.id, a.Alloc); err != nil {
						sd.logf("seeder: realloc %s: %v", s.id, err)
					}
				}
				sd.placements[s.id] = a
			}
		}
	}
	return firstErr
}

func sameAlloc(a, b netmodel.Resources) bool {
	return a.AtLeast(b, 1e-9) && b.AtLeast(a, 1e-9)
}

func (sd *Seeder) deploySeed(s *seedInst, a placement.Assignment) error {
	ref := s.ref
	ref.Switch = sd.fab.Topology().Switch(a.Switch).Name
	if err := sd.soils[a.Switch].DeployCompiled(ref, s.m.prog, s.externals, a.Alloc); err != nil {
		return err
	}
	s.ref = ref
	s.deployed = true
	s.deployedAt = a.Switch
	sd.placements[s.id] = a
	return nil
}

// migrateSeed performs a live migration: snapshot on the source, remove,
// then restore on the target after the modelled state-transfer delay.
func (sd *Seeder) migrateSeed(s *seedInst, a placement.Assignment) error {
	src := sd.soils[s.deployedAt]
	snap, err := src.SnapshotSeed(s.id)
	if err != nil {
		return err
	}
	if err := src.Remove(s.id); err != nil {
		return err
	}
	stateBytes := estimateSnapshotBytes(snap)
	delay := sd.fab.SwitchLatency(s.deployedAt, a.Switch) +
		time.Duration(float64(stateBytes)/stateTransferBytesPerSec*float64(time.Second))
	ref := s.ref
	ref.Switch = sd.fab.Topology().Switch(a.Switch).Name
	target := sd.soils[a.Switch]
	prog := s.m.prog
	ext := s.externals
	engine.ScheduleOn(sd.fab.Sched(), delay, func() {
		if err := target.RestoreSeed(ref, prog, ext, a.Alloc, snap); err != nil {
			sd.logf("seeder: migration restore %s: %v", s.id, err)
		}
	})
	s.ref = ref
	s.deployed = true
	s.deployedAt = a.Switch
	sd.placements[s.id] = a
	sd.migrations++
	return nil
}

func estimateSnapshotBytes(snap core.Snapshot) int {
	n := 64
	for k, v := range snap.Env {
		n += len(k) + textBytes(v)
	}
	for _, vars := range snap.StateVars {
		for k, v := range vars {
			n += len(k) + textBytes(v)
		}
	}
	return n
}

func estimateValueBytes(v core.Value) int {
	return 32 + textBytes(v)
}

// textBytes is len(core.FormatValue(v)) without building the string:
// the text is appended to pooled scratch. (Independent simulations may
// run on several goroutines at once, so each call takes a buffer of its
// own.)
func textBytes(v core.Value) int {
	buf := textScratch.Get().(*[]byte)
	*buf = core.AppendValue((*buf)[:0], v)
	n := len(*buf)
	textScratch.Put(buf)
	return n
}

var textScratch = sync.Pool{New: func() any { return new([]byte) }}

// route is the soils' SendFunc: it carries seed messages to harvesters
// and other seeds over the control network.
func (sd *Seeder) route(from soil.SeedRef, to core.SendDest, v core.Value) {
	fromID, ok := sd.byName[from.Switch]
	if !ok {
		sd.logf("seeder: route from unknown switch %q", from.Switch)
		return
	}
	size := estimateValueBytes(v)
	src := core.MsgSource{Machine: from.Machine, Switch: from.Switch}
	switch {
	case to.Harvester:
		h, ok := sd.harvesters[from.Task]
		if !ok {
			sd.logf("seeder: task %s has no harvester", from.Task)
			return
		}
		m := sd.msg(v)
		m.h, m.from = h, from
		sd.fab.SendToCentral(fromID, size, m.fire)
	case to.Dst != "":
		dstID, ok := sd.byName[to.Dst]
		if !ok {
			sd.logf("seeder: send to unknown switch %q", to.Dst)
			return
		}
		m := sd.msg(v)
		m.dst, m.task, m.machine, m.src = dstID, from.Task, to.Machine, src
		sd.fab.SendSwitchToSwitch(fromID, dstID, size, m.fire)
	default:
		// Broadcast to every switch hosting seeds of the machine
		// within the same task.
		for _, sw := range sd.fab.Topology().Switches() {
			m := sd.msg(v)
			m.dst, m.task, m.machine, m.src = sw.ID, from.Task, to.Machine, src
			sd.fab.SendSwitchToSwitch(fromID, sw.ID, size, m.fire)
		}
	}
}

// ctlMsg is one control message in flight: a seed's report on its way
// to its task's harvester, or a message on its way to the seeds of a
// machine on one switch. A message occupies one record from send to
// delivery, scheduled with the prebuilt fire, so routing allocates
// nothing once the records it needs exist (fabric's hop records do the
// same for packets).
type ctlMsg struct {
	sd   *Seeder
	fire func() // m.deliver, bound once
	v    core.Value

	h             *harvest.Harvester // to this harvester, from this seed, or
	from          soil.SeedRef
	dst           netmodel.SwitchID // to these seeds on this switch
	task, machine string
	src           core.MsgSource
}

// msg takes a record off the free list, or makes one, to carry v.
func (sd *Seeder) msg(v core.Value) *ctlMsg {
	var m *ctlMsg
	if n := len(sd.freeMsgs); n > 0 {
		m, sd.freeMsgs = sd.freeMsgs[n-1], sd.freeMsgs[:n-1]
	} else {
		m = &ctlMsg{sd: sd}
		m.fire = m.deliver
	}
	m.v = v
	return m
}

// deliver is a message's arrival. The record goes back to the free list
// first, so whatever the delivery sends can reuse it.
func (m *ctlMsg) deliver() {
	c := *m
	*m = ctlMsg{sd: c.sd, fire: c.fire}
	c.sd.freeMsgs = append(c.sd.freeMsgs, m)
	if c.h != nil {
		c.h.Deliver(c.from, c.v)
		return
	}
	c.sd.soils[c.dst].DeliverToMachine(c.task, c.machine, c.src, c.v)
}

// harvesterCtx implements harvest.Context for one task.
type harvesterCtx struct {
	sd   *Seeder
	task string
}

// SendToSeeds implements harvest.Context.
func (c *harvesterCtx) SendToSeeds(machine, switchName string, v core.Value) {
	size := estimateValueBytes(v)
	src := core.MsgSource{Harvester: true}
	send := func(id netmodel.SwitchID) {
		m := c.sd.msg(v)
		m.dst, m.task, m.machine, m.src = id, c.task, machine, src
		c.sd.fab.SendFromCentral(id, size, m.fire)
	}
	if switchName != "" {
		id, ok := c.sd.byName[switchName]
		if !ok {
			c.sd.logf("seeder: harvester %s: unknown switch %q", c.task, switchName)
			return
		}
		send(id)
		return
	}
	for _, sw := range c.sd.fab.Topology().Switches() {
		send(sw.ID)
	}
}

// Now implements harvest.Context.
func (c *harvesterCtx) Now() time.Duration { return c.sd.fab.Sched().Now() }

// Log implements harvest.Context.
func (c *harvesterCtx) Log(format string, args ...any) { c.sd.logf(format, args...) }
