package placement

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
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
//
// A solve works in pooled scratch (see heurState): what it allocates is
// its Result — the Placed map, the dropped list, and the allocation of
// every seed whose LP answer changed.
func Heuristic(in *Input) (*Result, error) {
	start := time.Now()
	st := heurPool.Get().(*heurState)
	defer st.release()
	if err := in.validate(st.swIdx, st.seedIdx); err != nil {
		return nil, err
	}
	st.reset(in)

	// Warm start: pin tasks whose current placement is still valid.
	pinActive := st.pinCurrent()

	// Step 1: task order by decreasing minimum utility.
	taskOrder := st.sortTasks()

	// Step 2: greedy placement of everything not pinned.
	var dropped []string
	for _, ts := range taskOrder {
		if st.tasks[ts.task].pinned {
			continue
		}
		if !st.placeTask(ts.task) {
			dropped = append(dropped, ts.name)
		}
	}
	if pinActive {
		// Whatever greedy filled is dirty too.
		for i, on := range st.greedyOn {
			st.dirty[i] = st.dirty[i] || on
		}
	}

	// Step 3: LP resource redistribution per switch. A warm-start solve
	// only revisits dirty switches: Touched ones, the old homes of
	// re-placed seeds, and whatever greedy just filled.
	if !in.SkipRedistribution {
		sws := st.sws[:0]
		for i := range in.Switches {
			if !pinActive || st.dirty[i] {
				sws = append(sws, int32(i))
			}
		}
		st.sws = sws
		if err := st.redistributeAll(sws); err != nil {
			return nil, err
		}
	}

	// Steps 4+5: migration by decreasing benefit. Warm-start solves
	// only reconsider seeds sitting on dirty switches.
	migrations := 0
	if !in.DisableMigration && len(in.Current) > 0 {
		var err error
		migrations, err = st.migrate(pinActive)
		if err != nil {
			return nil, err
		}
	}

	placed := make(map[string]Assignment, st.nPlaced)
	for i := range st.preps {
		if p := &st.preps[i]; p.placed {
			placed[p.spec.ID] = p.a
		}
	}
	res := &Result{
		Placed:       placed,
		DroppedTasks: dropped,
		Utility:      TotalUtility(in, placed),
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
	pollRows []lpRow  // per Polls entry: -coef per res, rhs = const
}

// Baked is one seed's step-3 LP fragments: every utility case's sorted
// resource list and util/constraint/poll rows, plus the seed's interned
// LP variable names. They depend only on the seed's ID, Utility and
// Polls, so a caller that re-solves the same seeds (the seeder's
// warm replans) bakes once per (seed, utility) and hands the value back
// in SeedSpec.Baked. Any number of solves, and their step-3 workers,
// share a Baked: nothing in it is written after Bake returns except the
// minimal allocations a solve publishes on its shape (see minimalAt).
type Baked struct {
	id       string
	utilName string     // "<seed>.u"
	varNames [][]string // per case: "<seed>.<res>" per shape.cases[ci].res
	shape    *bakedShape
}

// bakedShape is the part of a Baked that does not depend on the seed ID:
// seeds baked from the same Utility and Polls slices (the seeds of one
// machine) share it.
type bakedShape struct {
	utility poly.Utility // the cases baked, checked by Validate
	polls   []PollDemand
	cases   []caseLP
	// pollNames[i] is "poll.<subject>" of polls[i]: the name of the
	// subject's shared LP variable.
	pollNames []string
	// min holds the cases' minimal allocations for the last capacity
	// vector a solve asked for (see minimalAt). It is the one field
	// written after Bake: a solve publishes a new value when the vector
	// changed, and nothing writes a published value.
	min atomic.Pointer[minimal]
}

// minimal is every case's minimalAlloc answer at one capacity vector.
type minimal struct {
	key     []capEntry           // the capacity vector, sorted by resource
	allocs  []netmodel.Resources // per case; nil: infeasible even alone
	utils   []float64            // per case; -Inf where allocs is nil
	bestMin float64              // max of utils
}

// capEntry is one resource of a capacity vector, its amount bit for bit.
type capEntry struct {
	res  string
	bits uint64
}

// minimalAt returns the shape's minimal allocations for the capacity
// vector maxCap, whose sorted entries are key. They depend only on the
// utility cases and that vector, so the seeds of a machine compute them
// once per vector, not once per seed and solve.
func (sh *bakedShape) minimalAt(maxCap netmodel.Resources, key []capEntry) *minimal {
	if m := sh.min.Load(); m != nil && slices.Equal(m.key, key) {
		return m
	}
	m := &minimal{
		key:     slices.Clone(key),
		allocs:  make([]netmodel.Resources, len(sh.utility)),
		utils:   make([]float64, len(sh.utility)),
		bestMin: math.Inf(-1),
	}
	for ci, c := range sh.utility {
		alloc, ok := minimalAlloc(c, maxCap)
		if !ok {
			m.utils[ci] = math.Inf(-1)
			continue
		}
		u := caseUtilityAt(c, alloc)
		m.allocs[ci], m.utils[ci] = alloc, u
		if u > m.bestMin {
			m.bestMin = u
		}
	}
	sh.min.Store(m)
	return m
}

// Bake precomputes spec's step-3 LP fragments. like may be another
// seed's Baked: when it was baked from the same Utility and Polls slices,
// the result shares its rows and adds only spec's variable names.
func Bake(spec *SeedSpec, like *Baked) *Baked {
	var sh *bakedShape
	if like != nil && like.shape.matches(spec) {
		sh = like.shape
	} else {
		sh = bakeShape(spec)
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

func bakeShape(spec *SeedSpec) *bakedShape {
	sh := &bakedShape{
		utility: spec.Utility, polls: spec.Polls,
		cases:     make([]caseLP, len(spec.Utility)),
		pollNames: make([]string, len(spec.Polls)),
	}
	for i, pd := range spec.Polls {
		sh.pollNames[i] = "poll." + pd.Subject
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
		for i, pd := range spec.Polls {
			cl.pollRows[i] = cl.row(pd.Rate, -1, pd.Rate.Const)
		}
	}
	return sh
}

// matches reports whether b was baked from spec: the same seed ID, the
// same Utility and Polls slices.
func (b *Baked) matches(spec *SeedSpec) bool {
	return b.id == spec.ID && b.shape.matches(spec)
}

func (sh *bakedShape) matches(spec *SeedSpec) bool {
	return sameSlice(sh.utility, spec.Utility) && sameSlice(sh.polls, spec.Polls)
}

// sameSlice reports whether a and b are the same slice: same length, same
// backing array.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// seedPrep is one seed's state in a solve.
type seedPrep struct {
	spec  *SeedSpec
	baked *Baked
	min   *minimal // the seed's cases at this solve's largest capacities
	task  int32    // index into heurState.tasks
	// cur is the seed's Input.Current assignment, if hasCur.
	cur    Assignment
	hasCur bool
	// a is the seed's assignment in this solve, if placed, on switch
	// index at.
	a      Assignment
	at     int32
	placed bool
}

// taskPrep is one task's state in a solve.
type taskPrep struct {
	name   string
	seeds  []int32 // indices into heurState.preps, in Input.Seeds order
	pinned bool    // kept at its Current assignment (warm start)
}

// heurState is a solve's working state. It lives in heurPool between
// solves: reset rebuilds everything a solve reads, so only buffer
// capacity carries over, and release drops every reference into the
// caller's data. Per-switch state is indexed by the switch's position
// in Input.Switches; per-seed state by the seed's position in ID order.
type heurState struct {
	in *Input

	// swIdx maps a switch ID to its index. seedIdx is validate's
	// duplicate-ID set; reset then maps each seed ID to its prep.
	swIdx   map[netmodel.SwitchID]int32
	seedIdx map[string]int32

	// preps holds one entry per seed, sorted by ID, so that a sorted
	// list of prep indices is a list sorted by ID. order[k] is the
	// Input.Seeds index of preps[k].
	preps   []seedPrep
	order   []int32
	nPlaced int
	tasks   []taskPrep
	taskIdx map[string]int32

	// maxCap is the largest capacity any switch offers per resource —
	// the feasibility screen for minimal allocations — and maxKey its
	// sorted entries.
	maxCap netmodel.Resources
	maxKey []capEntry

	// remaining[i] is switch i's capacity minus what its seeds hold,
	// updated in place.
	remaining []netmodel.Resources
	// pollMax[i][subject] = current max demand for the subject on
	// switch i (shared consumption = max across subscribers at group
	// rate).
	pollMax []map[string]float64
	// seedsOn[i] lists the preps placed on switch i, in placement order.
	seedsOn [][]int32
	// slackCache memoizes normalizedSlack per switch until the switch's
	// remaining capacity changes.
	slackCache []float64
	slackOK    []bool
	// greedyOn marks the switches greedy placement touched; dirty is a
	// warm start's switch scope.
	greedyOn []bool
	dirty    []bool

	// Scratch lists and sets of pinCurrent, sortTasks, placeTask,
	// Heuristic and migrate.
	used      []netmodel.Resources
	pollsUsed []map[string]float64
	tasksOn   [][]int32
	scores    []taskScore
	committed []int32
	marked    []int32
	sws       []int32
	migIDs    []int32
	queue     []move

	// arenas[w] is step-3 fan-out worker w's arena; arenas[0] also
	// serves the serial path and the migrate pass. outs holds the
	// fan-out's outcomes until they are applied in switch order,
	// serialOut the serial path's.
	arenas    []*redistScratch
	outs      []redistOutcome
	errs      []error
	serialOut redistOutcome
}

var heurPool = sync.Pool{New: func() any {
	return &heurState{
		swIdx:   map[netmodel.SwitchID]int32{},
		seedIdx: map[string]int32{},
		taskIdx: map[string]int32{},
		maxCap:  netmodel.Resources{},
		arenas:  []*redistScratch{newRedistScratch()},
	}
}}

// reset prepares the state for a solve of in, which validate has
// checked (filling swIdx).
func (st *heurState) reset(in *Input) {
	st.in = in
	ns := len(in.Switches)
	st.remaining = growMaps(st.remaining, ns)
	st.pollMax = growMaps(st.pollMax, ns)
	st.used = growMaps(st.used, ns)
	st.pollsUsed = growMaps(st.pollsUsed, ns)
	st.seedsOn = growLists(st.seedsOn, ns)
	st.tasksOn = growLists(st.tasksOn, ns)
	st.slackCache = slices.Grow(st.slackCache[:0], ns)[:ns]
	st.slackOK = zeroed(st.slackOK, ns)
	st.greedyOn = zeroed(st.greedyOn, ns)
	st.dirty = zeroed(st.dirty, ns)
	clear(st.maxCap)
	for i, sw := range in.Switches {
		rem := st.remaining[i]
		clear(rem)
		for r, v := range sw.Capacity {
			rem[r] = v
			if v > st.maxCap[r] {
				st.maxCap[r] = v
			}
		}
		clear(st.pollMax[i])
		st.seedsOn[i] = st.seedsOn[i][:0]
	}
	st.maxKey = st.maxKey[:0]
	for r, v := range st.maxCap {
		st.maxKey = append(st.maxKey, capEntry{r, math.Float64bits(v)})
	}
	slices.SortFunc(st.maxKey, func(a, b capEntry) int { return strings.Compare(a.res, b.res) })

	n := len(in.Seeds)
	st.order = slices.Grow(st.order[:0], n)[:n]
	for i := range st.order {
		st.order[i] = int32(i)
	}
	slices.SortFunc(st.order, func(a, b int32) int { return strings.Compare(in.Seeds[a].ID, in.Seeds[b].ID) })
	st.preps = slices.Grow(st.preps[:0], n)[:n]
	for k, i := range st.order {
		s := &in.Seeds[i]
		p := &st.preps[k]
		*p = seedPrep{spec: s, baked: s.Baked}
		if p.baked == nil {
			p.baked = Bake(s, nil)
		}
		p.min = p.baked.shape.minimalAt(st.maxCap, st.maxKey)
		p.cur, p.hasCur = in.Current[s.ID]
		st.seedIdx[s.ID] = int32(k) // from here on: ID → prep index
	}
	st.nPlaced = 0

	// Tasks in order of first appearance, their seeds in Input.Seeds
	// order.
	clear(st.taskIdx)
	st.tasks = st.tasks[:0]
	for i := range in.Seeds {
		s := &in.Seeds[i]
		ti, ok := st.taskIdx[s.Task]
		if !ok {
			ti = int32(len(st.tasks))
			st.taskIdx[s.Task] = ti
			if len(st.tasks) < cap(st.tasks) {
				st.tasks = st.tasks[:ti+1]
				st.tasks[ti] = taskPrep{name: s.Task, seeds: st.tasks[ti].seeds[:0]}
			} else {
				st.tasks = append(st.tasks, taskPrep{name: s.Task})
			}
		}
		k := st.seedIdx[s.ID]
		st.preps[k].task = ti
		st.tasks[ti].seeds = append(st.tasks[ti].seeds, k)
	}
}

// release returns the state to the pool without its pointers into the
// solved Input and its Result: the seeds, their fragments and every
// allocation. (Resource names and poll subjects stay behind as map keys
// until the next solve clears them.)
func (st *heurState) release() {
	st.in = nil
	clear(st.preps[:cap(st.preps)])
	for i := range st.tasks {
		st.tasks[i].name = ""
	}
	clear(st.taskIdx)
	clear(st.seedIdx)
	for i := range st.outs {
		clear(st.outs[i].allocs)
	}
	clear(st.serialOut.allocs)
	clear(st.errs)
	heurPool.Put(st)
}

// growMaps returns ms resized to n, every entry a map: those within its
// capacity are kept.
func growMaps[M ~map[K]V, K comparable, V any](ms []M, n int) []M {
	ms = slices.Grow(ms[:0], n)[:n]
	for i, m := range ms {
		if m == nil {
			ms[i] = M{}
		}
	}
	return ms
}

// growLists returns ls with n empty lists, keeping their backing arrays.
func growLists(ls [][]int32, n int) [][]int32 {
	ls = slices.Grow(ls[:0], n)[:n]
	for i := range ls {
		ls[i] = ls[i][:0]
	}
	return ls
}

// zeroed returns b resized to n, every element false.
func zeroed(b []bool, n int) []bool {
	b = slices.Grow(b[:0], n)[:n]
	clear(b)
	return b
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

// pinCurrent arms the warm-start path: every task whose Current
// assignments are still valid (switch alive, candidate sets and cases
// unchanged-compatible, constraints feasible, aggregate capacity
// respected) is pinned in place. It returns whether pinning is active;
// if so, dirty holds the switches seeding step 3's scope.
func (st *heurState) pinCurrent() bool {
	in := st.in
	if in.ForceFull || in.Touched == nil || len(in.Current) == 0 {
		return false
	}
	// A task pins iff every one of its seeds can stay put (C1).
	for ti := range st.tasks {
		t := &st.tasks[ti]
		t.pinned = true
		for _, k := range t.seeds {
			p := &st.preps[k]
			a := &p.cur
			_, alive := st.swIdx[a.Switch]
			if !p.hasCur || !alive || !slices.Contains(p.spec.Candidates, a.Switch) ||
				a.Case < 0 || a.Case >= len(p.spec.Utility) ||
				!p.spec.Utility[a.Case].Feasible(a.Alloc.AsFloats(), 1e-6) {
				t.pinned = false
				break
			}
		}
	}
	// Aggregate feasibility: the pinned load must fit every switch
	// (capacities may have shrunk since the last solve). An overloaded
	// switch unpins every task touching it; one pass suffices because
	// unpinning only reduces usage elsewhere.
	for i := range in.Switches {
		clear(st.used[i])
		clear(st.pollsUsed[i])
		st.tasksOn[i] = st.tasksOn[i][:0]
	}
	for ti := range st.tasks {
		if !st.tasks[ti].pinned {
			continue
		}
		for _, k := range st.tasks[ti].seeds {
			p := &st.preps[k]
			a := &p.cur
			si := st.swIdx[a.Switch]
			addSansPoll(st.used[si], a.Alloc)
			polls := st.pollsUsed[si]
			for _, pd := range p.spec.Polls {
				d := pd.Rate.Eval(a.Alloc.AsFloats())
				if d > polls[pd.Subject] {
					polls[pd.Subject] = d
				}
			}
			st.tasksOn[si] = append(st.tasksOn[si], int32(ti))
		}
	}
	for i, sw := range in.Switches {
		over := false
		for r, v := range st.used[i] {
			if v > sw.Capacity[r]+1e-9 {
				over = true
				break
			}
		}
		if !over && pollTotal(st.pollsUsed[i]) > sw.Capacity[netmodel.ResPoll]+1e-9 {
			over = true
		}
		if over {
			for _, ti := range st.tasksOn[i] {
				st.tasks[ti].pinned = false
			}
		}
	}
	// Fallback: a mostly-stale problem re-solves in full. Staleness
	// counts only tasks that HAD a placement and lost their pin —
	// tasks with no Current entries (new arrivals, previously dropped)
	// go through greedy regardless and do not invalidate the pins.
	hadCurrent, stale := 0, 0
	for ti := range st.tasks {
		t := &st.tasks[ti]
		had := false
		for _, k := range t.seeds {
			if st.preps[k].hasCur {
				had = true
				break
			}
		}
		if had {
			hadCurrent++
			if !t.pinned {
				stale++
			}
		}
	}
	if hadCurrent > 0 && float64(stale)/float64(hadCurrent) > DefaultFullThreshold {
		for ti := range st.tasks {
			st.tasks[ti].pinned = false
		}
		return false
	}
	// Commit pins in sorted seed order. The pinned Alloc is the caller's
	// map, which nobody writes (see Assignment).
	for k := range st.preps {
		p := &st.preps[k]
		if !st.tasks[p.task].pinned {
			continue
		}
		a := p.cur
		a.Utility = caseUtilityAt(p.spec.Utility[a.Case], a.Alloc)
		st.placeSeedAt(int32(k), st.swIdx[a.Switch], a)
	}
	// Dirty switches: the caller-declared Touched set plus the old
	// homes of every seed that must re-place.
	for _, id := range in.Touched {
		if si, ok := st.swIdx[id]; ok {
			st.dirty[si] = true
		}
	}
	for k := range st.preps {
		p := &st.preps[k]
		if st.tasks[p.task].pinned || !p.hasCur {
			continue
		}
		if si, ok := st.swIdx[p.cur.Switch]; ok {
			st.dirty[si] = true
		}
	}
	return true
}

// taskScore is a task's sort key in step 1.
type taskScore struct {
	task int32
	name string
	min  float64
}

// sortTasks orders tasks by decreasing minimum utility (the utility of
// the task's weakest seed at its cheapest configuration).
func (st *heurState) sortTasks() []taskScore {
	scores := st.scores[:0]
	for ti := range st.tasks {
		minU := math.Inf(1)
		for _, k := range st.tasks[ti].seeds {
			if b := st.preps[k].min.bestMin; b < minU {
				minU = b
			}
		}
		scores = append(scores, taskScore{int32(ti), st.tasks[ti].name, minU})
	}
	slices.SortFunc(scores, func(a, b taskScore) int {
		if c := cmp.Compare(b.min, a.min); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
	st.scores = scores
	return scores
}

// normalizedSlack scores a switch's remaining headroom as the mean of
// remaining/capacity over its resource types. Values are cached per
// switch until its remaining capacity changes — greedy placement reads
// this once per (seed, candidate) pair.
func (st *heurState) normalizedSlack(si int32) float64 {
	if st.slackOK[si] {
		return st.slackCache[si]
	}
	rem := st.remaining[si]
	total, count := 0.0, 0
	for r, c := range st.in.Switches[si].Capacity {
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
	st.slackCache[si], st.slackOK[si] = v, true
	return v
}

func (st *heurState) invalidateSlack(si int32) {
	st.slackOK[si] = false
}

// pollDelta computes the increase in total shared polling consumption on
// switch si if a seed with the given demands is added.
func (st *heurState) pollDelta(si int32, spec *SeedSpec, alloc netmodel.Resources) float64 {
	delta := 0.0
	for _, pd := range spec.Polls {
		demand := pd.Rate.Eval(alloc.AsFloats())
		cur := st.pollMax[si][pd.Subject]
		if demand > cur {
			delta += demand - cur
		}
	}
	return delta
}

func (st *heurState) commitPolls(si int32, spec *SeedSpec, alloc netmodel.Resources) {
	m := st.pollMax[si]
	for _, pd := range spec.Polls {
		demand := pd.Rate.Eval(alloc.AsFloats())
		if demand > m[pd.Subject] {
			m[pd.Subject] = demand
		}
	}
}

// recomputePolls rebuilds the poll-sharing maxima of one switch from
// scratch (after removals, a max cannot be updated incrementally).
func (st *heurState) recomputePolls(si int32) {
	m := st.pollMax[si]
	clear(m)
	for _, k := range st.seedsOn[si] {
		p := &st.preps[k]
		for _, pd := range p.spec.Polls {
			demand := pd.Rate.Eval(p.a.Alloc.AsFloats())
			if demand > m[pd.Subject] {
				m[pd.Subject] = demand
			}
		}
	}
}

func pollTotal(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

// fits reports whether (alloc, polls) fit the remaining capacity of
// switch si.
func (st *heurState) fits(si int32, spec *SeedSpec, alloc netmodel.Resources) bool {
	rem := st.remaining[si]
	for r, v := range alloc {
		if r == netmodel.ResPoll {
			continue
		}
		if rem[r] < v-1e-9 {
			return false
		}
	}
	if pollTotal(st.pollMax[si])+st.pollDelta(si, spec, alloc) > st.in.Switches[si].Capacity[netmodel.ResPoll]+1e-9 {
		return false
	}
	return true
}

// placeSeed commits one seed at its minimal allocation. The Alloc is the
// machine's published minimal allocation, shared read-only.
func (st *heurState) placeSeed(k, si int32, caseIdx int) {
	p := &st.preps[k]
	st.placeSeedAt(k, si, Assignment{
		Alloc:   p.min.allocs[caseIdx],
		Case:    caseIdx,
		Utility: p.min.utils[caseIdx],
	})
	st.greedyOn[si] = true
}

// placeSeedAt commits a specific assignment on switch si.
func (st *heurState) placeSeedAt(k, si int32, a Assignment) {
	p := &st.preps[k]
	a.Switch = st.in.Switches[si].ID
	p.a, p.at, p.placed = a, si, true
	st.nPlaced++
	subSansPoll(st.remaining[si], a.Alloc)
	st.commitPolls(si, p.spec, a.Alloc)
	st.seedsOn[si] = append(st.seedsOn[si], k)
	st.invalidateSlack(si)
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

// unplaceSeed rolls a seed back out. Its last assignment stays in
// preps[k].a.
func (st *heurState) unplaceSeed(k int32) {
	p := &st.preps[k]
	if !p.placed {
		return
	}
	p.placed = false
	st.nPlaced--
	si := p.at
	addSansPoll(st.remaining[si], p.a.Alloc)
	list := st.seedsOn[si]
	if i := slices.Index(list, k); i >= 0 {
		st.seedsOn[si] = slices.Delete(list, i, i+1)
	}
	st.recomputePolls(si)
	st.invalidateSlack(si)
}

// choice is one (seed, switch, case) option of greedy placement.
type choice struct {
	k       int32 // prep; its index orders seeds by ID
	si      int32
	caseIdx int
	util    float64
	slack   float64 // remaining headroom on the target switch
	keeps   bool    // keeps an existing valid placement (no migration)
}

// better is greedy placement's strict order: keeping a placement, then
// utility, then slack, then the lower seed ID.
func (c *choice) better(b *choice) bool {
	if c.keeps != b.keeps {
		return c.keeps // avoid unnecessary migration first
	}
	if c.util != b.util {
		return c.util > b.util
	}
	if c.slack != b.slack {
		// Spread load: equal utility goes to the emptier switch so
		// step 3's redistribution has headroom.
		return c.slack > b.slack
	}
	return c.k < b.k
}

// placeTask greedily places all seeds of a task; false (with rollback)
// if any seed cannot be placed (C1).
func (st *heurState) placeTask(ti int32) bool {
	seeds := st.tasks[ti].seeds
	committed := st.committed[:0]
	// Switches first dirtied by THIS task, unmarked again if the task
	// rolls back — a failed attempt leaves no trace, so hopeless tasks
	// do not drag clean switches into a warm solve's dirty set.
	marked := st.marked[:0]
	placed := true
	for left := len(seeds); left > 0; left-- {
		var best choice
		found := false
		for _, k := range seeds {
			p := &st.preps[k]
			if p.placed {
				continue
			}
			for _, n := range p.spec.Candidates {
				si := st.swIdx[n]
				for ci, alloc := range p.min.allocs {
					if alloc == nil || !st.fits(si, p.spec, alloc) {
						continue
					}
					c := choice{
						k: k, si: si, caseIdx: ci,
						util:  p.min.utils[ci],
						slack: st.normalizedSlack(si),
						keeps: p.hasCur && p.cur.Switch == n,
					}
					if !found || c.better(&best) {
						best, found = c, true
					}
				}
			}
		}
		if !found {
			// Task cannot be completed: roll back (C1).
			for _, k := range committed {
				st.unplaceSeed(k)
			}
			for _, si := range marked {
				st.greedyOn[si] = false
			}
			placed = false
			break
		}
		if !st.greedyOn[best.si] {
			marked = append(marked, best.si)
		}
		st.placeSeed(best.k, best.si, best.caseIdx)
		committed = append(committed, best.k)
	}
	st.committed, st.marked = committed, marked
	return placed
}

// redistOutcome is the solved step-3 LP of one switch: the new
// allocations and utilities for its seeds (in ID order). !ok means
// "keep the greedy allocation" (empty switch or non-optimal LP).
type redistOutcome struct {
	ok     bool
	ids    []int32
	allocs []netmodel.Resources
	utils  []float64
}

// redistScratch is one step-3 solver's arena: its LP and the lists the
// LP is assembled from, all reused from switch to switch and solve to
// solve.
type redistScratch struct {
	prob     *lp.Problem
	coefs    []lp.Coef // one row being built; AddConstraint copies it
	obj      []lp.Coef
	resVars  []lp.Var // every seed's resource variables, back to back
	resOff   []int    // per seed: where its resource variables start
	utilVars []lp.Var
	// Per-resource usage sums (excluding poll, handled via subjects)
	// and poll subject variables, both in first-use order — row order
	// must not depend on map iteration, or degenerate LPs could pick
	// different vertices run to run.
	usageRes []string
	usage    [][]lp.Coef
	pollSubj []string
	pollVars []lp.Var
}

func newRedistScratch() *redistScratch {
	return &redistScratch{prob: lp.New(lp.Maximize)}
}

// addUsage adds v to resource r's capacity row.
func (rs *redistScratch) addUsage(r string, v lp.Var) {
	i := slices.Index(rs.usageRes, r)
	if i < 0 {
		i = len(rs.usageRes)
		rs.usageRes = append(rs.usageRes, r)
		if i < cap(rs.usage) {
			rs.usage = rs.usage[:i+1]
			rs.usage[i] = rs.usage[i][:0]
		} else {
			rs.usage = append(rs.usage, nil)
		}
	}
	rs.usage[i] = append(rs.usage[i], lp.Coef{Var: v, Val: 1})
}

// pollVar returns the shared variable of a poll subject, declaring it
// (named name) on first use.
func (rs *redistScratch) pollVar(subject, name string) lp.Var {
	if i := slices.Index(rs.pollSubj, subject); i >= 0 {
		return rs.pollVars[i]
	}
	v := rs.prob.AddVar(name, 0, lp.Inf)
	rs.pollSubj = append(rs.pollSubj, subject)
	rs.pollVars = append(rs.pollVars, v)
	return v
}

// redistributeAll runs step 3 over the given switches. With more than
// one worker the independent per-switch LPs fan out over a pool — each
// worker owns one redistScratch — and outcomes are applied serially
// in switch order, so the result is byte-identical to the serial run at
// any worker count. Per-switch solves read only switch-local state
// (seedsOn, the assignments of resident seeds, the preps), and
// applies only write switch-local state, so solve-all-then-apply is
// equivalent to the interleaved serial loop.
func (st *heurState) redistributeAll(sws []int32) error {
	workers := st.in.parallelWorkers()
	if workers > len(sws) {
		workers = len(sws)
	}
	if workers <= 1 {
		for _, si := range sws {
			if err := st.redistribute(si); err != nil {
				return err
			}
		}
		return nil
	}
	for len(st.arenas) < workers {
		st.arenas = append(st.arenas, newRedistScratch())
	}
	st.outs = slices.Grow(st.outs[:0], len(sws))[:len(sws)]
	st.errs = slices.Grow(st.errs[:0], len(sws))[:len(sws)]
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, rs := range st.arenas[:workers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sws) {
					return
				}
				st.errs[i] = st.solveRedist(sws[i], rs, &st.outs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range st.errs {
		if err != nil {
			return err // lowest switch index wins, matching serial
		}
	}
	for i, si := range sws {
		st.applyRedist(si, &st.outs[i])
	}
	return nil
}

// redistribute solves and applies one switch's step-3 LP (serial path
// and the migrate pass) in the first arena.
func (st *heurState) redistribute(si int32) error {
	if err := st.solveRedist(si, st.arenas[0], &st.serialOut); err != nil {
		return err
	}
	st.applyRedist(si, &st.serialOut)
	return nil
}

// solveRedist builds and solves the per-switch LP of step 3: maximize
// the sum of the placed seeds' utilities subject to their selected
// cases, the switch capacities, and the shared polling budget. It is
// strictly read-only on shared state (safe to run concurrently for
// distinct switches), builds the LP in rs and writes its answer to out.
func (st *heurState) solveRedist(si int32, rs *redistScratch, out *redistOutcome) error {
	sw := &st.in.Switches[si]
	out.ok = false
	if testRedistErr != nil {
		if err := testRedistErr(sw.ID); err != nil {
			return fmt.Errorf("placement: redistribution on switch %d: %w", sw.ID, err)
		}
	}
	ids := append(out.ids[:0], st.seedsOn[si]...)
	out.ids = ids
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids) // ID order

	prob := rs.prob
	prob.Reset(lp.Maximize)
	rs.obj, rs.resVars, rs.resOff, rs.utilVars = rs.obj[:0], rs.resVars[:0], rs.resOff[:0], rs.utilVars[:0]
	rs.usageRes, rs.usage = rs.usageRes[:0], rs.usage[:0]
	rs.pollSubj, rs.pollVars = rs.pollSubj[:0], rs.pollVars[:0]
	coefs := rs.coefs[:0]
	for _, k := range ids {
		p := &st.preps[k]
		sh := p.baked.shape
		cl := &sh.cases[p.a.Case]
		names := p.baked.varNames[p.a.Case]
		off := len(rs.resVars)
		rs.resOff = append(rs.resOff, off)
		for ri, r := range cl.res {
			v := prob.AddVar(names[ri], 0, sw.Capacity[r])
			rs.resVars = append(rs.resVars, v)
			rs.addUsage(r, v)
		}
		rv := rs.resVars[off:]
		// Utility variable with t <= each min-term.
		u := prob.AddVar(p.baked.utilName, 0, lp.Inf)
		rs.utilVars = append(rs.utilVars, u)
		rs.obj = append(rs.obj, lp.Coef{Var: u, Val: 1})
		for _, row := range cl.utilRows {
			coefs = append(coefs[:0], lp.Coef{Var: u, Val: 1})
			coefs = row.appendCoefs(coefs, rv)
			prob.AddConstraint(coefs, lp.LE, row.rhs)
		}
		// Case constraints.
		for _, row := range cl.conRows {
			coefs = row.appendCoefs(coefs[:0], rv)
			prob.AddConstraint(coefs, lp.GE, row.rhs)
		}
		// Poll demands: pollres_p >= rate(res).
		for pi, row := range cl.pollRows {
			pv := rs.pollVar(sh.polls[pi].Subject, sh.pollNames[pi])
			coefs = append(coefs[:0], lp.Coef{Var: pv, Val: 1})
			coefs = row.appendCoefs(coefs, rv)
			prob.AddConstraint(coefs, lp.GE, row.rhs)
		}
	}

	// Capacity rows.
	for i, r := range rs.usageRes {
		prob.AddConstraint(rs.usage[i], lp.LE, sw.Capacity[r])
	}
	if len(rs.pollVars) > 0 {
		coefs = coefs[:0]
		for _, v := range rs.pollVars {
			coefs = append(coefs, lp.Coef{Var: v, Val: 1})
		}
		prob.AddConstraint(coefs, lp.LE, sw.Capacity[netmodel.ResPoll])
	}
	rs.coefs = coefs

	prob.SetObjective(rs.obj, 0)
	sol, err := prob.Solve()
	if err != nil {
		return fmt.Errorf("placement: redistribution on switch %d: %w", sw.ID, err)
	}
	if sol.Status != lp.Optimal {
		// The greedy allocation is feasible by construction; keep it.
		return nil
	}
	out.ok = true
	out.allocs = slices.Grow(out.allocs[:0], len(ids))[:len(ids)]
	out.utils = slices.Grow(out.utils[:0], len(ids))[:len(ids)]
	for j, k := range ids {
		p := &st.preps[k]
		res := p.baked.shape.cases[p.a.Case].res
		off := rs.resOff[j]
		out.allocs[j] = outcomeAlloc(p.a.Alloc, res, rs.resVars[off:off+len(res)], sol)
		out.utils[j] = sol.Value(rs.utilVars[j])
	}
	return nil
}

// appendCoefs appends the row's coefficients over the seed's resource
// variables rv.
func (row *lpRow) appendCoefs(coefs []lp.Coef, rv []lp.Var) []lp.Coef {
	for j, ri := range row.res {
		coefs = append(coefs, lp.Coef{Var: rv[ri], Val: row.vals[j]})
	}
	return coefs
}

// outcomeAlloc is a seed's allocation in a solved step-3 LP: every
// resource the LP gives it more than 1e-9 of. When that is exactly cur
// — the same resources, the same values bit for bit — it returns cur
// itself, so a seed whose answer did not change allocates nothing.
func outcomeAlloc(cur netmodel.Resources, res []string, rv []lp.Var, sol *lp.Solution) netmodel.Resources {
	n, same := 0, true
	for ri, v := range rv {
		if x := sol.Value(v); x > 1e-9 {
			n++
			if same {
				y, ok := cur[res[ri]]
				same = ok && math.Float64bits(y) == math.Float64bits(x)
			}
		}
	}
	if same && n == len(cur) {
		return cur
	}
	alloc := make(netmodel.Resources, n)
	for ri, v := range rv {
		if x := sol.Value(v); x > 1e-9 {
			alloc[res[ri]] = x
		}
	}
	return alloc
}

// applyRedist commits one switch's solved LP outcome.
func (st *heurState) applyRedist(si int32, out *redistOutcome) {
	if !out.ok {
		return
	}
	for j, k := range out.ids {
		p := &st.preps[k]
		p.a.Alloc = out.allocs[j]
		p.a.Utility = out.utils[j]
	}
	st.recomputePolls(si)
	// Update remaining capacity from actual allocations.
	rem := st.remaining[si]
	clear(rem)
	for r, v := range st.in.Switches[si].Capacity {
		rem[r] = v
	}
	for _, k := range out.ids {
		subSansPoll(rem, st.preps[k].a.Alloc)
	}
	st.invalidateSlack(si)
}

// switchUtility sums the current utilities on a switch.
func (st *heurState) switchUtility(si int32) float64 {
	total := 0.0
	for _, k := range st.seedsOn[si] {
		total += st.preps[k].a.Utility
	}
	return total
}

// move is a migration candidate: seed k to switch index to.
type move struct {
	k       int32
	to      int32
	benefit float64
}

// migrate evaluates moving each in-scope seed to each alternative
// candidate and applies moves in decreasing benefit order (steps 4 and
// 5 of Alg. 1). The benefit is the change in the two affected switches'
// LP-optimal utility minus the migration cost. Unless scoped, every
// placed seed is in scope; scoped, those on dirty switches are.
// Redistribution failures mid-migration abort the pass — the error
// propagates instead of silently leaving placed state and poll maxima
// inconsistent.
func (st *heurState) migrate(scoped bool) (int, error) {
	ids := st.migIDs[:0]
	for k := range st.preps {
		p := &st.preps[k]
		if p.placed && (!scoped || st.dirty[p.at]) {
			ids = append(ids, int32(k))
		}
	}
	st.migIDs = ids

	queue := st.queue[:0]
	for _, k := range ids {
		mv, ok, err := st.bestMove(k)
		if err != nil {
			return 0, err
		}
		if ok {
			queue = append(queue, mv)
		}
	}
	st.queue = queue
	slices.SortFunc(queue, func(a, b move) int {
		if c := cmp.Compare(b.benefit, a.benefit); c != 0 {
			return c
		}
		return cmp.Compare(a.k, b.k)
	})

	migrations := 0
	for _, mv := range queue {
		// Re-evaluate: earlier moves may have consumed the target.
		cur, ok, err := st.bestMove(mv.k)
		if err != nil {
			return migrations, err
		}
		if !ok || cur.to != mv.to || cur.benefit <= 0 {
			continue
		}
		applied, err := st.applyMove(mv.k, mv.to)
		if err != nil {
			return migrations, err
		}
		if applied {
			migrations++
		}
	}
	return migrations, nil
}

// bestMove finds seed k's most beneficial move, if any beats staying.
func (st *heurState) bestMove(k int32) (move, bool, error) {
	p := &st.preps[k]
	if !p.placed {
		return move{}, false, nil
	}
	from := p.a.Switch
	best := move{k: k}
	found := false
	for _, n := range p.spec.Candidates {
		if n == from {
			continue
		}
		to := st.swIdx[n]
		b, ok, err := st.moveBenefit(k, to)
		if err != nil {
			return move{}, false, err
		}
		if ok && b > best.benefit+1e-9 {
			best = move{k: k, to: to, benefit: b}
			found = true
		}
	}
	return best, found, nil
}

// moveBenefit estimates the utility change of moving seed k to switch
// index to.
func (st *heurState) moveBenefit(k, to int32) (float64, bool, error) {
	p := &st.preps[k]
	a, from := p.a, p.at
	before := st.switchUtility(from) + st.switchUtility(to)

	// Tentatively move at minimal allocation.
	alloc := p.min.allocs[a.Case]
	if alloc == nil {
		return 0, false, nil
	}
	st.unplaceSeed(k)
	if !st.fits(to, p.spec, alloc) {
		// Restore.
		st.placeSeedAt(k, from, a)
		return 0, false, nil
	}
	st.placeSeed(k, to, a.Case)
	if err := st.redistribute(from); err != nil {
		return 0, false, err
	}
	if err := st.redistribute(to); err != nil {
		return 0, false, err
	}
	after := st.switchUtility(from) + st.switchUtility(to)

	// Roll back.
	st.unplaceSeed(k)
	st.placeSeedAt(k, from, a)
	if err := st.redistribute(from); err != nil {
		return 0, false, err
	}
	if err := st.redistribute(to); err != nil {
		return 0, false, err
	}

	return after - before - st.in.migrationCost(), true, nil
}

// applyMove performs the migration for real.
func (st *heurState) applyMove(k, to int32) (bool, error) {
	p := &st.preps[k]
	a, from := p.a, p.at
	alloc := p.min.allocs[a.Case]
	st.unplaceSeed(k)
	if alloc == nil || !st.fits(to, p.spec, alloc) {
		st.placeSeedAt(k, from, a)
		return false, nil
	}
	st.placeSeed(k, to, a.Case)
	if err := st.redistribute(from); err != nil {
		return false, err
	}
	if err := st.redistribute(to); err != nil {
		return false, err
	}
	return true, nil
}
