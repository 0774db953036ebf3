package placement

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"farm/internal/lp"
	"farm/internal/netmodel"
	"farm/internal/poly"
)

// testRedistErr, when non-nil (tests only), injects an error into the
// per-switch redistribution solve — real LP failures are near impossible
// to provoke from feasible greedy allocations, and the migrate pass's
// error propagation needs a regression test.
var testRedistErr func(netmodel.SwitchID) error

// Heuristic runs Alg. 1: (1) sort tasks by decreasing minimum utility,
// (2) greedily place each task's seeds at their cheapest viable
// configuration — keeping already-placed seeds where they are — dropping
// whole tasks that do not fit, (3) redistribute resources with one LP
// per switch, (4+5) evaluate migration benefits and apply them in
// decreasing order.
//
// Step 3's per-switch LPs are independent and fan out over a worker
// pool (Input.Parallel); outcomes are merged in switch order, so the
// result is byte-identical to the serial run at any worker count.
//
// When Input.Current and Input.Touched are both set (and ForceFull is
// not), the solve warm-starts: tasks whose current assignments are
// still valid and feasible are pinned as-is, greedy placement runs only
// for the rest, and redistribution and migration are confined to the
// dirty switch neighborhoods. Because the previous solve's LP outcomes
// are stored in Current and the LP is deterministic, skipping clean
// switches reproduces exactly what re-solving them would produce.
func Heuristic(in *Input) (*Result, error) {
	start := time.Now()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	st := newHeurState(in)

	// Warm start: pin tasks whose current placement is still valid.
	pinActive, dirty := st.pinCurrent()

	// Step 1: task order by decreasing minimum utility.
	taskOrder := st.sortTasks()

	// Step 2: greedy placement of everything not pinned.
	var dropped []string
	for _, task := range taskOrder {
		if st.pinned[task] {
			continue
		}
		if !st.placeTask(task) {
			dropped = append(dropped, task)
		}
	}

	// Step 3: LP resource redistribution per switch. A warm-start solve
	// only revisits dirty switches: Touched ones, the old homes of
	// re-placed seeds, and whatever greedy just filled.
	if !in.SkipRedistribution {
		sws := in.Switches
		if pinActive {
			for id := range st.greedyOn {
				dirty[id] = true
			}
			sws = sws[:0:0]
			for _, sw := range in.Switches {
				if dirty[sw.ID] {
					sws = append(sws, sw)
				}
			}
		}
		if err := st.redistributeAll(sws); err != nil {
			return nil, err
		}
	}

	// Steps 4+5: migration by decreasing benefit. Warm-start solves
	// only reconsider seeds sitting on dirty switches.
	migrations := 0
	if !in.DisableMigration && len(in.Current) > 0 {
		var scope map[string]bool
		if pinActive {
			for id := range st.greedyOn {
				dirty[id] = true
			}
			scope = map[string]bool{}
			for n := range dirty {
				for _, id := range st.seedsOn[n] {
					scope[id] = true
				}
			}
		}
		var err error
		migrations, err = st.migrate(scope)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{
		Placed:       st.placed,
		DroppedTasks: dropped,
		Utility:      TotalUtility(in, st.placed),
		Migrations:   migrations,
		Runtime:      time.Since(start),
	}
	sort.Strings(res.DroppedTasks)
	return res, nil
}

// lpRow is one prebaked constraint row of the per-switch LP: sparse
// coefficients over the case's variable list plus a right-hand side.
type lpRow struct {
	res  []int // indices into caseLP.res
	vals []float64
	rhs  float64
}

// caseLP is the switch- and seed-independent part of a seed case's
// step-3 LP fragment, baked ahead of the solve (see Baked) so
// redistribute never re-sorts names or re-walks polynomials.
type caseLP struct {
	res      []string // sorted resources the case or polls mention, sans poll
	utilRows []lpRow  // t <= term rows: -coef per res, rhs = term const
	conRows  []lpRow  // case constraints as GE rows, rhs = -const
	pollRows []lpRow  // poll demand rows: -alpha*coef per res, rhs = alpha*const
	pollSubj []string // subject per pollRows entry
}

// Baked is one seed's step-3 LP fragments: every utility case's sorted
// resource list and util/constraint/poll rows, plus the seed's interned
// LP variable names. They depend only on the seed's ID, Utility and Polls
// and on alpha, so a caller that re-solves the same seeds (the seeder's
// warm replans) bakes once per (seed, utility) and hands the value back
// in SeedSpec.Baked. A Baked is never written after Bake returns: any
// number of solves, and their step-3 workers, share it.
type Baked struct {
	id       string
	utilName string     // "<seed>.u"
	varNames [][]string // per case: "<seed>.<res>" per shape.cases[ci].res
	shape    *bakedShape
}

// bakedShape is the part of a Baked that does not depend on the seed ID:
// seeds baked from the same Utility and Polls slices at the same alpha
// (the seeds of one machine) share it.
type bakedShape struct {
	alpha   float64
	utility poly.Utility // the cases baked, checked by Validate
	polls   []PollDemand
	cases   []caseLP
}

// Bake precomputes spec's step-3 LP fragments for a solve whose
// Input.AlphaPoll is alpha (0 means 1, as there). like may be another
// seed's Baked: when it was baked from the same Utility and Polls slices
// at the same alpha, the result shares its rows and adds only spec's
// variable names.
func Bake(spec *SeedSpec, alpha float64, like *Baked) *Baked {
	alpha = alphaOrOne(alpha)
	var sh *bakedShape
	if like != nil && like.shape.matches(spec, alpha) {
		sh = like.shape
	} else {
		sh = bakeShape(spec, alpha)
	}
	b := &Baked{
		id: spec.ID, utilName: spec.ID + ".u",
		varNames: make([][]string, len(sh.cases)),
		shape:    sh,
	}
	for ci := range sh.cases {
		res := sh.cases[ci].res
		names := make([]string, len(res))
		for ri, r := range res {
			names[ri] = spec.ID + "." + r
		}
		b.varNames[ci] = names
	}
	return b
}

func bakeShape(spec *SeedSpec, alpha float64) *bakedShape {
	sh := &bakedShape{
		alpha: alpha, utility: spec.Utility, polls: spec.Polls,
		cases: make([]caseLP, len(spec.Utility)),
	}
	for ci, c := range spec.Utility {
		cl := &sh.cases[ci]
		cl.res = make([]string, 0, 4) // vCPU, RAM, TCAM, PCIe: rarely more
		for _, con := range c.Constraints {
			cl.addRes(con)
		}
		for _, term := range c.Util {
			cl.addRes(term)
		}
		for _, pd := range spec.Polls {
			cl.addRes(pd.Rate)
		}
		sort.Strings(cl.res)
		cl.utilRows = make([]lpRow, len(c.Util))
		for i, term := range c.Util {
			cl.utilRows[i] = cl.row(term, -1, term.Const)
		}
		cl.conRows = make([]lpRow, 0, len(c.Constraints))
		for _, con := range c.Constraints {
			if row := cl.row(con, 1, -con.Const); len(row.res) > 0 {
				cl.conRows = append(cl.conRows, row)
			}
		}
		cl.pollRows = make([]lpRow, len(spec.Polls))
		cl.pollSubj = make([]string, len(spec.Polls))
		for i, pd := range spec.Polls {
			cl.pollRows[i] = cl.row(pd.Rate, -alpha, alpha*pd.Rate.Const)
			cl.pollSubj[i] = pd.Subject
		}
	}
	return sh
}

// matches reports whether b was baked from spec at alpha: the same seed
// ID, the same Utility and Polls slices, the same alpha.
func (b *Baked) matches(spec *SeedSpec, alpha float64) bool {
	return b.id == spec.ID && b.shape.matches(spec, alpha)
}

func (sh *bakedShape) matches(spec *SeedSpec, alpha float64) bool {
	return sh.alpha == alpha && sameSlice(sh.utility, spec.Utility) && sameSlice(sh.polls, spec.Polls)
}

// sameSlice reports whether a and b are the same slice: same length, same
// backing array.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

type seedPrep struct {
	spec *SeedSpec
	// per case: minimal allocation and its utility (nil = infeasible
	// everywhere).
	minAllocs []netmodel.Resources
	minUtils  []float64
	bestMin   float64 // max over cases of minUtils
	baked     *Baked
}

type heurState struct {
	in     *Input
	alpha  float64
	preps  map[string]*seedPrep
	tasks  map[string][]*seedPrep
	placed map[string]Assignment
	// pinned marks tasks kept at their Current assignment (warm start).
	pinned map[string]bool

	// remaining[n] is owned by the solve (cloned from capacity) and
	// updated in place.
	remaining map[netmodel.SwitchID]netmodel.Resources
	// pollMax[n][subject] = current max demand for the subject on n
	// (shared consumption = max across subscribers at group rate).
	pollMax map[netmodel.SwitchID]map[string]float64
	// seedsOn[n] = IDs placed on n (sorted when consumed).
	seedsOn map[netmodel.SwitchID][]string

	// swIdx indexes Input.Switches by ID — the O(N) switchByID scan was
	// 16% of the paper-scale flat profile.
	swIdx map[netmodel.SwitchID]int
	// slackCache memoizes normalizedSlack per switch index until the
	// switch's remaining capacity changes.
	slackCache []float64
	slackOK    []bool
	// greedyOn records switches greedy placement touched this run.
	greedyOn map[netmodel.SwitchID]bool
	// lpProb is the reusable serial-path LP arena (migrate and
	// single-worker redistribution).
	lpProb *lp.Problem
}

func newHeurState(in *Input) *heurState {
	st := &heurState{
		in:        in,
		alpha:     in.alphaPoll(),
		preps:     map[string]*seedPrep{},
		tasks:     map[string][]*seedPrep{},
		placed:    map[string]Assignment{},
		pinned:    map[string]bool{},
		remaining: map[netmodel.SwitchID]netmodel.Resources{},
		pollMax:   map[netmodel.SwitchID]map[string]float64{},
		seedsOn:   map[netmodel.SwitchID][]string{},
		swIdx:     make(map[netmodel.SwitchID]int, len(in.Switches)),
		greedyOn:  map[netmodel.SwitchID]bool{},
	}
	st.slackCache = make([]float64, len(in.Switches))
	st.slackOK = make([]bool, len(in.Switches))
	for i, sw := range in.Switches {
		st.remaining[sw.ID] = sw.Capacity.Clone()
		st.pollMax[sw.ID] = map[string]float64{}
		st.swIdx[sw.ID] = i
	}
	// The largest capacity any switch offers — feasibility screen for
	// minimal allocations.
	maxCap := netmodel.Resources{}
	for _, sw := range in.Switches {
		for r, v := range sw.Capacity {
			if v > maxCap[r] {
				maxCap[r] = v
			}
		}
	}
	for i := range in.Seeds {
		s := &in.Seeds[i]
		p := &seedPrep{
			spec: s, bestMin: math.Inf(-1), baked: s.Baked,
			minAllocs: make([]netmodel.Resources, 0, len(s.Utility)),
			minUtils:  make([]float64, 0, len(s.Utility)),
		}
		if p.baked == nil {
			p.baked = Bake(s, st.alpha, nil)
		}
		for _, c := range s.Utility {
			alloc, ok := minimalAlloc(c, maxCap)
			if !ok {
				p.minAllocs = append(p.minAllocs, nil)
				p.minUtils = append(p.minUtils, math.Inf(-1))
				continue
			}
			u := caseUtilityAt(c, alloc)
			p.minAllocs = append(p.minAllocs, alloc)
			p.minUtils = append(p.minUtils, u)
			if u > p.bestMin {
				p.bestMin = u
			}
		}
		st.preps[s.ID] = p
		st.tasks[s.Task] = append(st.tasks[s.Task], p)
	}
	return st
}

// addRes adds the resources lin mentions to the case's variable list.
// Poll-typed terms never become LP variables.
func (cl *caseLP) addRes(lin poly.Linear) {
	for r, c := range lin.Coef {
		if c != 0 && r != netmodel.ResPoll && !slices.Contains(cl.res, r) {
			cl.res = append(cl.res, r)
		}
	}
}

// row bakes scale*lin's coefficients over the case's (sorted) variable
// list, in that order.
func (cl *caseLP) row(lin poly.Linear, scale, rhs float64) lpRow {
	n := 0
	for _, r := range cl.res {
		if lin.Coef[r] != 0 {
			n++
		}
	}
	row := lpRow{rhs: rhs}
	if n == 0 {
		return row
	}
	row.res = make([]int, 0, n)
	row.vals = make([]float64, 0, n)
	for ri, r := range cl.res {
		if c := lin.Coef[r]; c != 0 {
			row.res = append(row.res, ri)
			row.vals = append(row.vals, scale*c)
		}
	}
	return row
}

func (st *heurState) switchInfo(n netmodel.SwitchID) SwitchInfo {
	return st.in.Switches[st.swIdx[n]]
}

// pinCurrent arms the warm-start path: every task whose Current
// assignments are still valid (switch alive, candidate sets and cases
// unchanged-compatible, constraints feasible, aggregate capacity
// respected) is pinned in place. Returns whether pinning is active and
// the dirty switch set seeding step 3's scope.
func (st *heurState) pinCurrent() (bool, map[netmodel.SwitchID]bool) {
	in := st.in
	if in.ForceFull || in.Touched == nil || len(in.Current) == 0 {
		return false, nil
	}
	// A task pins iff every one of its seeds can stay put (C1).
	pinned := map[string]bool{}
	for name, seeds := range st.tasks {
		ok := true
		for _, p := range seeds {
			a, has := in.Current[p.spec.ID]
			if !has {
				ok = false
				break
			}
			if _, exists := st.swIdx[a.Switch]; !exists {
				ok = false
				break
			}
			inCand := false
			for _, c := range p.spec.Candidates {
				if c == a.Switch {
					inCand = true
					break
				}
			}
			if !inCand || a.Case < 0 || a.Case >= len(p.spec.Utility) ||
				!p.spec.Utility[a.Case].Feasible(a.Alloc.AsFloats(), 1e-6) {
				ok = false
				break
			}
		}
		if ok {
			pinned[name] = true
		}
	}
	// Aggregate feasibility: the pinned load must fit every switch
	// (capacities may have shrunk since the last solve). An overloaded
	// switch unpins every task touching it; one pass suffices because
	// unpinning only reduces usage elsewhere.
	used := map[netmodel.SwitchID]netmodel.Resources{}
	polls := map[netmodel.SwitchID]map[string]float64{}
	tasksOn := map[netmodel.SwitchID][]string{}
	for name := range pinned {
		for _, p := range st.tasks[name] {
			a := in.Current[p.spec.ID]
			if used[a.Switch] == nil {
				used[a.Switch] = netmodel.Resources{}
				polls[a.Switch] = map[string]float64{}
			}
			addSansPoll(used[a.Switch], a.Alloc)
			for _, pd := range p.spec.Polls {
				d := st.alpha * pd.Rate.Eval(a.Alloc.AsFloats())
				if d > polls[a.Switch][pd.Subject] {
					polls[a.Switch][pd.Subject] = d
				}
			}
			tasksOn[a.Switch] = append(tasksOn[a.Switch], name)
		}
	}
	for _, sw := range in.Switches {
		over := false
		for r, v := range used[sw.ID] {
			if v > sw.Capacity[r]+1e-9 {
				over = true
				break
			}
		}
		if !over && pollTotal(polls[sw.ID]) > sw.Capacity[netmodel.ResPoll]+1e-9 {
			over = true
		}
		if over {
			for _, name := range tasksOn[sw.ID] {
				delete(pinned, name)
			}
		}
	}
	// Fallback: a mostly-stale problem re-solves in full. Staleness
	// counts only tasks that HAD a placement and lost their pin —
	// tasks with no Current entries (new arrivals, previously dropped)
	// go through greedy regardless and do not invalidate the pins.
	hadCurrent, stale := 0, 0
	for name, seeds := range st.tasks {
		had := false
		for _, p := range seeds {
			if _, ok := in.Current[p.spec.ID]; ok {
				had = true
				break
			}
		}
		if had {
			hadCurrent++
			if !pinned[name] {
				stale++
			}
		}
	}
	if hadCurrent > 0 && float64(stale)/float64(hadCurrent) > in.fullThreshold() {
		return false, nil
	}
	// Commit pins in sorted seed order.
	var ids []string
	for name := range pinned {
		for _, p := range st.tasks[name] {
			ids = append(ids, p.spec.ID)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := st.preps[id]
		a := in.Current[id]
		st.placeSeedAt(p, a.Switch, Assignment{
			Alloc:   a.Alloc.Clone(),
			Case:    a.Case,
			Utility: caseUtilityAt(p.spec.Utility[a.Case], a.Alloc),
		})
	}
	st.pinned = pinned
	// Dirty switches: the caller-declared Touched set plus the old
	// homes of every seed that must re-place.
	dirty := map[netmodel.SwitchID]bool{}
	for _, id := range in.Touched {
		if _, ok := st.swIdx[id]; ok {
			dirty[id] = true
		}
	}
	for i := range in.Seeds {
		s := &in.Seeds[i]
		if pinned[s.Task] {
			continue
		}
		if a, ok := in.Current[s.ID]; ok {
			if _, exists := st.swIdx[a.Switch]; exists {
				dirty[a.Switch] = true
			}
		}
	}
	return true, dirty
}

// sortTasks orders tasks by decreasing minimum utility (the utility of
// the task's weakest seed at its cheapest configuration).
func (st *heurState) sortTasks() []string {
	type taskScore struct {
		name string
		min  float64
	}
	var scores []taskScore
	for name, seeds := range st.tasks {
		minU := math.Inf(1)
		for _, p := range seeds {
			if p.bestMin < minU {
				minU = p.bestMin
			}
		}
		scores = append(scores, taskScore{name, minU})
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].min != scores[j].min {
			return scores[i].min > scores[j].min
		}
		return scores[i].name < scores[j].name
	})
	out := make([]string, len(scores))
	for i, s := range scores {
		out[i] = s.name
	}
	return out
}

// normalizedSlack scores a switch's remaining headroom as the mean of
// remaining/capacity over its resource types. Values are cached per
// switch until its remaining capacity changes — greedy placement reads
// this once per (seed, candidate) pair.
func (st *heurState) normalizedSlack(n netmodel.SwitchID) float64 {
	i := st.swIdx[n]
	if st.slackOK[i] {
		return st.slackCache[i]
	}
	sw := st.in.Switches[i]
	rem := st.remaining[n]
	total, count := 0.0, 0
	for r, c := range sw.Capacity {
		if c <= 0 || r == netmodel.ResPoll {
			continue
		}
		total += rem[r] / c
		count++
	}
	v := 0.0
	if count > 0 {
		v = total / float64(count)
	}
	st.slackCache[i], st.slackOK[i] = v, true
	return v
}

func (st *heurState) invalidateSlack(n netmodel.SwitchID) {
	st.slackOK[st.swIdx[n]] = false
}

// pollDelta computes the increase in total shared polling consumption on
// switch n if a seed with the given demands is added.
func (st *heurState) pollDelta(n netmodel.SwitchID, spec *SeedSpec, alloc netmodel.Resources) float64 {
	delta := 0.0
	for _, pd := range spec.Polls {
		demand := st.alpha * pd.Rate.Eval(alloc.AsFloats())
		cur := st.pollMax[n][pd.Subject]
		if demand > cur {
			delta += demand - cur
		}
	}
	return delta
}

func (st *heurState) commitPolls(n netmodel.SwitchID, spec *SeedSpec, alloc netmodel.Resources) {
	for _, pd := range spec.Polls {
		demand := st.alpha * pd.Rate.Eval(alloc.AsFloats())
		if demand > st.pollMax[n][pd.Subject] {
			st.pollMax[n][pd.Subject] = demand
		}
	}
}

// recomputePolls rebuilds the poll-sharing maxima of one switch from
// scratch (after removals, a max cannot be updated incrementally).
func (st *heurState) recomputePolls(n netmodel.SwitchID) {
	m := map[string]float64{}
	for _, id := range st.seedsOn[n] {
		a := st.placed[id]
		spec := st.preps[id].spec
		for _, pd := range spec.Polls {
			demand := st.alpha * pd.Rate.Eval(a.Alloc.AsFloats())
			if demand > m[pd.Subject] {
				m[pd.Subject] = demand
			}
		}
	}
	st.pollMax[n] = m
}

func pollTotal(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

// fits reports whether (alloc, polls) fit the remaining capacity of n.
func (st *heurState) fits(n netmodel.SwitchID, spec *SeedSpec, alloc netmodel.Resources) bool {
	rem := st.remaining[n]
	for r, v := range alloc {
		if r == netmodel.ResPoll {
			continue
		}
		if rem[r] < v-1e-9 {
			return false
		}
	}
	sw := st.switchInfo(n)
	if pollTotal(st.pollMax[n])+st.pollDelta(n, spec, alloc) > sw.Capacity[netmodel.ResPoll]+1e-9 {
		return false
	}
	return true
}

// placeSeed commits one seed at its minimal allocation.
func (st *heurState) placeSeed(p *seedPrep, n netmodel.SwitchID, caseIdx int) {
	alloc := p.minAllocs[caseIdx].Clone()
	st.placed[p.spec.ID] = Assignment{
		Switch:  n,
		Alloc:   alloc,
		Case:    caseIdx,
		Utility: p.minUtils[caseIdx],
	}
	subSansPoll(st.remaining[n], alloc)
	st.commitPolls(n, p.spec, alloc)
	st.seedsOn[n] = append(st.seedsOn[n], p.spec.ID)
	st.greedyOn[n] = true
	st.invalidateSlack(n)
}

// subSansPoll and addSansPoll update a capacity map the solve owns in
// place by an allocation, skipping poll: polling is accounted through
// shared subjects (pollMax), not per seed.
func subSansPoll(m, alloc netmodel.Resources) {
	for r, v := range alloc {
		if r != netmodel.ResPoll {
			m[r] -= v
		}
	}
}

func addSansPoll(m, alloc netmodel.Resources) {
	for r, v := range alloc {
		if r != netmodel.ResPoll {
			m[r] += v
		}
	}
}

// unplaceSeed rolls a seed back out.
func (st *heurState) unplaceSeed(id string) {
	a, ok := st.placed[id]
	if !ok {
		return
	}
	delete(st.placed, id)
	addSansPoll(st.remaining[a.Switch], a.Alloc)
	list := st.seedsOn[a.Switch]
	for i, x := range list {
		if x == id {
			st.seedsOn[a.Switch] = append(list[:i], list[i+1:]...)
			break
		}
	}
	st.recomputePolls(a.Switch)
	st.invalidateSlack(a.Switch)
}

// placeTask greedily places all seeds of a task; false (with rollback)
// if any seed cannot be placed (C1).
func (st *heurState) placeTask(task string) bool {
	seeds := st.tasks[task]
	var committed []string
	// Switches first dirtied by THIS task, unmarked again if the task
	// rolls back — a failed attempt leaves no trace, so hopeless tasks
	// do not drag clean switches into a warm solve's dirty set.
	var newlyMarked []netmodel.SwitchID
	unplaced := map[string]*seedPrep{}
	for _, p := range seeds {
		unplaced[p.spec.ID] = p
	}

	for len(unplaced) > 0 {
		type choice struct {
			p       *seedPrep
			n       netmodel.SwitchID
			caseIdx int
			util    float64
			slack   float64 // remaining headroom on the target switch
			keeps   bool    // keeps an existing valid placement (no migration)
		}
		var best *choice
		better := func(a, b *choice) bool {
			if b == nil {
				return true
			}
			if a.keeps != b.keeps {
				return a.keeps // avoid unnecessary migration first
			}
			if a.util != b.util {
				return a.util > b.util
			}
			if a.slack != b.slack {
				// Spread load: equal utility goes to the emptier
				// switch so step 3's redistribution has headroom.
				return a.slack > b.slack
			}
			return a.p.spec.ID < b.p.spec.ID
		}
		ids := make([]string, 0, len(unplaced))
		for id := range unplaced {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			p := unplaced[id]
			cur, hasCur := st.in.Current[id]
			for _, n := range p.spec.Candidates {
				for k := range p.spec.Utility {
					if p.minAllocs[k] == nil {
						continue
					}
					if !st.fits(n, p.spec, p.minAllocs[k]) {
						continue
					}
					c := &choice{
						p: p, n: n, caseIdx: k,
						util:  p.minUtils[k],
						slack: st.normalizedSlack(n),
						keeps: hasCur && cur.Switch == n,
					}
					if better(c, best) {
						best = c
					}
				}
			}
		}
		if best == nil {
			// Task cannot be completed: roll back (C1).
			for _, id := range committed {
				st.unplaceSeed(id)
			}
			for _, n := range newlyMarked {
				delete(st.greedyOn, n)
			}
			return false
		}
		if !st.greedyOn[best.n] {
			newlyMarked = append(newlyMarked, best.n)
		}
		st.placeSeed(best.p, best.n, best.caseIdx)
		committed = append(committed, best.p.spec.ID)
		delete(unplaced, best.p.spec.ID)
	}
	return true
}

// redistOutcome is the solved step-3 LP of one switch: the new
// allocations and utilities for its seeds (in sorted seed order). nil
// means "keep the greedy allocation" (empty switch or non-optimal LP).
type redistOutcome struct {
	ids    []string
	allocs []netmodel.Resources
	utils  []float64
}

// redistributeAll runs step 3 over the given switches. With more than
// one worker the independent per-switch LPs fan out over a pool — each
// worker owns one lp.Problem arena — and outcomes are applied serially
// in switch order, so the result is byte-identical to the serial run at
// any worker count. Per-switch solves read only switch-local state
// (seedsOn, the placed entries of resident seeds, the preps), and
// applies only write switch-local state, so solve-all-then-apply is
// equivalent to the interleaved serial loop.
func (st *heurState) redistributeAll(sws []SwitchInfo) error {
	workers := st.in.parallelWorkers()
	if workers > len(sws) {
		workers = len(sws)
	}
	if workers <= 1 {
		for _, sw := range sws {
			if err := st.redistribute(sw); err != nil {
				return err
			}
		}
		return nil
	}
	outcomes := make([]*redistOutcome, len(sws))
	errs := make([]error, len(sws))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prob := lp.New(lp.Maximize)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sws) {
					return
				}
				outcomes[i], errs[i] = st.solveRedist(sws[i], prob)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err // lowest switch index wins, matching serial
		}
	}
	for i, sw := range sws {
		st.applyRedist(sw, outcomes[i])
	}
	return nil
}

// redistribute solves and applies one switch's step-3 LP (serial path
// and the migrate pass), reusing the state's LP arena.
func (st *heurState) redistribute(sw SwitchInfo) error {
	if st.lpProb == nil {
		st.lpProb = lp.New(lp.Maximize)
	}
	out, err := st.solveRedist(sw, st.lpProb)
	if err != nil {
		return err
	}
	st.applyRedist(sw, out)
	return nil
}

// solveRedist builds and solves the per-switch LP of step 3: maximize
// the sum of the placed seeds' utilities subject to their selected
// cases, the switch capacities, and the shared polling budget. It is
// strictly read-only on shared state (safe to run concurrently for
// distinct switches) and reuses prob as its arena.
func (st *heurState) solveRedist(sw SwitchInfo, prob *lp.Problem) (*redistOutcome, error) {
	if testRedistErr != nil {
		if err := testRedistErr(sw.ID); err != nil {
			return nil, fmt.Errorf("placement: redistribution on switch %d: %w", sw.ID, err)
		}
	}
	ids := append([]string(nil), st.seedsOn[sw.ID]...)
	if len(ids) == 0 {
		return nil, nil
	}
	sort.Strings(ids)

	prob.Reset(lp.Maximize)
	resVars := make([][]lp.Var, len(ids))
	utilVars := make([]lp.Var, len(ids))
	cls := make([]*caseLP, len(ids))
	var obj []lp.Coef
	var coefs []lp.Coef // scratch row, copied by AddConstraint

	// Per-resource usage sums (excluding poll, handled via subjects)
	// and poll subject variables, both in deterministic first-use order
	// — row order must not depend on map iteration, or degenerate LPs
	// could pick different vertices run to run.
	usage := map[string][]lp.Coef{}
	var usageOrder []string
	pollres := map[string]lp.Var{}
	var pollOrder []string

	for k, id := range ids {
		p := st.preps[id]
		a := st.placed[id]
		cl := &p.baked.shape.cases[a.Case]
		names := p.baked.varNames[a.Case]
		cls[k] = cl
		rv := make([]lp.Var, len(cl.res))
		for ri, r := range cl.res {
			v := prob.AddVar(names[ri], 0, sw.Capacity[r])
			rv[ri] = v
			if _, seen := usage[r]; !seen {
				usageOrder = append(usageOrder, r)
			}
			usage[r] = append(usage[r], lp.Coef{Var: v, Val: 1})
		}
		resVars[k] = rv
		// Utility variable with t <= each min-term.
		u := prob.AddVar(p.baked.utilName, 0, lp.Inf)
		utilVars[k] = u
		obj = append(obj, lp.Coef{Var: u, Val: 1})
		for _, row := range cl.utilRows {
			coefs = append(coefs[:0], lp.Coef{Var: u, Val: 1})
			for j, ri := range row.res {
				coefs = append(coefs, lp.Coef{Var: rv[ri], Val: row.vals[j]})
			}
			prob.AddConstraint(coefs, lp.LE, row.rhs)
		}
		// Case constraints.
		for _, row := range cl.conRows {
			coefs = coefs[:0]
			for j, ri := range row.res {
				coefs = append(coefs, lp.Coef{Var: rv[ri], Val: row.vals[j]})
			}
			prob.AddConstraint(coefs, lp.GE, row.rhs)
		}
		// Poll demands: pollres_p >= alpha * rate(res).
		for pi, row := range cl.pollRows {
			subject := cl.pollSubj[pi]
			pv, ok := pollres[subject]
			if !ok {
				pv = prob.AddVar("poll."+subject, 0, lp.Inf)
				pollres[subject] = pv
				pollOrder = append(pollOrder, subject)
			}
			coefs = append(coefs[:0], lp.Coef{Var: pv, Val: 1})
			for j, ri := range row.res {
				coefs = append(coefs, lp.Coef{Var: rv[ri], Val: row.vals[j]})
			}
			prob.AddConstraint(coefs, lp.GE, row.rhs)
		}
	}

	// Capacity rows.
	for _, r := range usageOrder {
		prob.AddConstraint(usage[r], lp.LE, sw.Capacity[r])
	}
	if len(pollOrder) > 0 {
		coefs = coefs[:0]
		for _, subject := range pollOrder {
			coefs = append(coefs, lp.Coef{Var: pollres[subject], Val: 1})
		}
		prob.AddConstraint(coefs, lp.LE, sw.Capacity[netmodel.ResPoll])
	}

	prob.SetObjective(obj, 0)
	sol, err := prob.Solve()
	if err != nil {
		return nil, fmt.Errorf("placement: redistribution on switch %d: %w", sw.ID, err)
	}
	if sol.Status != lp.Optimal {
		// The greedy allocation is feasible by construction; keep it.
		return nil, nil
	}
	out := &redistOutcome{
		ids:    ids,
		allocs: make([]netmodel.Resources, len(ids)),
		utils:  make([]float64, len(ids)),
	}
	for k := range ids {
		alloc := netmodel.Resources{}
		for ri, v := range resVars[k] {
			if x := sol.Value(v); x > 1e-9 {
				alloc[cls[k].res[ri]] = x
			}
		}
		out.allocs[k] = alloc
		out.utils[k] = sol.Value(utilVars[k])
	}
	return out, nil
}

// applyRedist commits one switch's solved LP outcome.
func (st *heurState) applyRedist(sw SwitchInfo, out *redistOutcome) {
	if out == nil {
		return
	}
	for k, id := range out.ids {
		a := st.placed[id]
		a.Alloc = out.allocs[k]
		a.Utility = out.utils[k]
		st.placed[id] = a
	}
	st.recomputePolls(sw.ID)
	// Update remaining capacity from actual allocations.
	rem := st.remaining[sw.ID]
	clear(rem)
	for r, v := range sw.Capacity {
		rem[r] = v
	}
	for _, id := range out.ids {
		subSansPoll(rem, st.placed[id].Alloc)
	}
	st.invalidateSlack(sw.ID)
}

// switchUtility sums the current utilities on a switch.
func (st *heurState) switchUtility(n netmodel.SwitchID) float64 {
	total := 0.0
	for _, id := range st.seedsOn[n] {
		total += st.placed[id].Utility
	}
	return total
}

// migrate evaluates moving each in-scope seed to each alternative
// candidate and applies moves in decreasing benefit order (steps 4 and
// 5 of Alg. 1). The benefit is the change in the two affected switches'
// LP-optimal utility minus the migration cost. A nil scope considers
// every placed seed. Redistribution failures mid-migration abort the
// pass — the error propagates instead of silently leaving placed state
// and poll maxima inconsistent.
func (st *heurState) migrate(scope map[string]bool) (int, error) {
	type move struct {
		id      string
		to      netmodel.SwitchID
		benefit float64
	}
	evaluate := func(id string) (move, bool, error) {
		a, ok := st.placed[id]
		if !ok {
			return move{}, false, nil
		}
		p := st.preps[id]
		best := move{id: id, benefit: 0}
		found := false
		for _, n := range p.spec.Candidates {
			if n == a.Switch {
				continue
			}
			b, ok, err := st.moveBenefit(id, n)
			if err != nil {
				return move{}, false, err
			}
			if ok && b > best.benefit+1e-9 {
				best = move{id: id, to: n, benefit: b}
				found = true
			}
		}
		return best, found, nil
	}

	ids := make([]string, 0, len(st.placed))
	for id := range st.placed {
		if scope != nil && !scope[id] {
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var queue []move
	for _, id := range ids {
		mv, ok, err := evaluate(id)
		if err != nil {
			return 0, err
		}
		if ok {
			queue = append(queue, mv)
		}
	}
	sort.Slice(queue, func(i, j int) bool {
		if queue[i].benefit != queue[j].benefit {
			return queue[i].benefit > queue[j].benefit
		}
		return queue[i].id < queue[j].id
	})

	migrations := 0
	for _, mv := range queue {
		// Re-evaluate: earlier moves may have consumed the target.
		cur, ok, err := evaluate(mv.id)
		if err != nil {
			return migrations, err
		}
		if !ok || cur.to != mv.to || cur.benefit <= 0 {
			continue
		}
		applied, err := st.applyMove(mv.id, mv.to)
		if err != nil {
			return migrations, err
		}
		if applied {
			migrations++
		}
	}
	return migrations, nil
}

// moveBenefit estimates the utility change of moving a seed to switch n.
func (st *heurState) moveBenefit(id string, n netmodel.SwitchID) (float64, bool, error) {
	a := st.placed[id]
	from := a.Switch
	before := st.switchUtility(from) + st.switchUtility(n)

	// Tentatively move at minimal allocation.
	p := st.preps[id]
	alloc := p.minAllocs[a.Case]
	if alloc == nil {
		return 0, false, nil
	}
	st.unplaceSeed(id)
	if !st.fits(n, p.spec, alloc) {
		// Restore.
		st.placeSeedAt(p, from, a)
		return 0, false, nil
	}
	st.placeSeed(p, n, a.Case)
	swFrom := st.switchInfo(from)
	swTo := st.switchInfo(n)
	if err := st.redistribute(swFrom); err != nil {
		return 0, false, err
	}
	if err := st.redistribute(swTo); err != nil {
		return 0, false, err
	}
	after := st.switchUtility(from) + st.switchUtility(n)

	// Roll back.
	st.unplaceSeed(id)
	st.placeSeedAt(p, from, a)
	if err := st.redistribute(swFrom); err != nil {
		return 0, false, err
	}
	if err := st.redistribute(swTo); err != nil {
		return 0, false, err
	}

	return after - before - st.in.migrationCost(), true, nil
}

// placeSeedAt restores a specific prior assignment.
func (st *heurState) placeSeedAt(p *seedPrep, n netmodel.SwitchID, a Assignment) {
	a.Switch = n
	st.placed[p.spec.ID] = a
	subSansPoll(st.remaining[n], a.Alloc)
	st.commitPolls(n, p.spec, a.Alloc)
	st.seedsOn[n] = append(st.seedsOn[n], p.spec.ID)
	st.invalidateSlack(n)
}

// applyMove performs the migration for real.
func (st *heurState) applyMove(id string, n netmodel.SwitchID) (bool, error) {
	a := st.placed[id]
	from := a.Switch
	p := st.preps[id]
	alloc := p.minAllocs[a.Case]
	st.unplaceSeed(id)
	if alloc == nil || !st.fits(n, p.spec, alloc) {
		st.placeSeedAt(p, from, a)
		return false, nil
	}
	st.placeSeed(p, n, a.Case)
	if err := st.redistribute(st.switchInfo(from)); err != nil {
		return false, err
	}
	if err := st.redistribute(st.switchInfo(n)); err != nil {
		return false, err
	}
	return true, nil
}
