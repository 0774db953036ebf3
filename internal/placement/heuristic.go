package placement

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
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

// testMemo, when non-nil (tests only), is told of every step-3 memo
// lookup — the switch and whether it hit — and returns whether to treat
// it as a miss and solve the switch's LP anyway: the oracle the memo's
// answers are checked against.
var testMemo func(sw netmodel.SwitchID, hit bool) (miss bool)

// Heuristic runs Alg. 1: (1) sort tasks by decreasing minimum utility,
// (2) greedily place each task's seeds at their cheapest viable
// configuration — keeping already-placed seeds where they are — dropping
// whole tasks that do not fit, (3) redistribute resources with one LP
// per switch, (4+5) evaluate migration benefits and apply them in
// decreasing order.
//
// When Input.Current and Input.Touched are both set, the solve
// warm-starts: tasks whose current assignments are still valid and
// feasible are pinned as-is, greedy placement runs only for the rest,
// and redistribution and migration are confined to the dirty switch
// neighborhoods. Because the previous solve's LP outcomes
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
		for _, si := range sws {
			if err := st.redistribute(si); err != nil {
				return nil, err
			}
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
// redistribute never re-walks polynomials.
type caseLP struct {
	res      []netmodel.Res // resources the case or polls mention, sans poll, in index order
	utilRows []lpRow        // t <= term rows: -coef per res, rhs = term const
	conRows  []lpRow        // case constraints as GE rows, rhs = -const
	pollRows []lpRow        // per Polls entry: -coef per res, rhs = const
}

// Baked is a seed's step-3 LP fragments: every utility case's
// resource list and util/constraint/poll rows, and the names of its
// poll subjects' shared variables. They depend only on the seed's
// Utility and Polls, so every seed with those slices (the seeds of one
// machine analysed against one set of externals, in the seeder) shares
// one Baked, and a caller that re-solves them bakes it once and hands it
// back in SeedSpec.Baked. Any number of solves share a Baked, one at a
// time: nothing in it is written after Bake returns except the minimal
// allocations a solve keeps (see minimalAt), so it is not safe for
// concurrent use.
type Baked struct {
	utility poly.Utility // the cases baked, checked by Validate
	polls   []PollDemand
	cases   []caseLP
	// pollNames[i] is "poll.<subject>" of polls[i]: the name of the
	// subject's shared LP variable.
	pollNames []string
	// min holds the cases' minimal allocations for the last capacity
	// vector a solve asked for (see minimalAt). It is the one field
	// written after Bake: a solve replaces it when the vector changed,
	// and never writes the value it replaces, which earlier solves may
	// still hold.
	min *minimal
}

// minimal is every case's minimalAlloc answer at one capacity vector.
type minimal struct {
	capacity netmodel.Vector   // the capacity vector
	allocs   []netmodel.Vector // per case
	ok       []bool            // per case; false: infeasible even alone
	utils    []float64         // per case; -Inf where infeasible
	bestMin  float64           // max of utils
}

// minimalAt returns the cases' minimal allocations for the capacity
// vector maxCap. They depend only on the utility cases and that vector,
// so the seeds of a machine compute them once per vector, not once per
// seed and solve.
func (b *Baked) minimalAt(maxCap netmodel.Vector) *minimal {
	if m := b.min; m != nil && m.capacity == maxCap {
		return m
	}
	m := &minimal{
		capacity: maxCap,
		allocs:   make([]netmodel.Vector, len(b.utility)),
		ok:       make([]bool, len(b.utility)),
		utils:    make([]float64, len(b.utility)),
		bestMin:  math.Inf(-1),
	}
	for ci, c := range b.utility {
		alloc, ok := minimalAlloc(c, maxCap)
		if !ok {
			m.utils[ci] = math.Inf(-1)
			continue
		}
		u := caseUtilityAt(c, alloc)
		m.allocs[ci], m.ok[ci], m.utils[ci] = alloc, true, u
		if u > m.bestMin {
			m.bestMin = u
		}
	}
	b.min = m
	return m
}

// Bake precomputes the step-3 LP fragments of spec's Utility and Polls.
func Bake(spec *SeedSpec) *Baked {
	b := &Baked{
		utility: spec.Utility, polls: spec.Polls,
		cases:     make([]caseLP, len(spec.Utility)),
		pollNames: make([]string, len(spec.Polls)),
	}
	for i, pd := range spec.Polls {
		b.pollNames[i] = "poll." + pd.Subject
	}
	for ci, c := range spec.Utility {
		cl := &b.cases[ci]
		var used [netmodel.NumRes]bool
		for _, con := range c.Constraints {
			mention(&used, con)
		}
		for _, term := range c.Util {
			mention(&used, term)
		}
		for _, pd := range spec.Polls {
			mention(&used, pd.Rate)
		}
		used[netmodel.ResPoll] = false // poll-typed terms never become LP variables
		for r, ok := range used {
			if ok {
				cl.res = append(cl.res, netmodel.Res(r))
			}
		}
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
	return b
}

// matches reports whether b was baked from spec's Utility and Polls
// slices.
func (b *Baked) matches(spec *SeedSpec) bool {
	return sameSlice(b.utility, spec.Utility) && sameSlice(b.polls, spec.Polls)
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
	shape int32    // this solve's number of baked, its shape (heurState.shapes)
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

	// maxCap is the largest capacity any switch offers per resource:
	// the feasibility screen for minimal allocations.
	maxCap netmodel.Vector

	// capClass[i] is the lowest index of a switch whose capacity vector
	// equals switch i's; capFirst maps a capacity vector to the first
	// switch with it. shapes numbers the distinct Baked values. Together
	// they make a step-3 LP's signature (see lpMemo).
	capClass []int32
	capFirst map[netmodel.Vector]int32
	shapes   map[*Baked]int32

	// remaining[i] is switch i's capacity minus what its seeds hold.
	remaining []netmodel.Vector
	// pollMax[i] is switch i's shared polling: each subject's largest
	// demand (shared consumption = max across subscribers at group
	// rate).
	pollMax []pollLoad
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
	used      []netmodel.Vector
	pollsUsed []pollLoad
	tasksOn   [][]int32
	scores    []taskScore
	committed []int32
	marked    []int32
	sws       []int32
	migIDs    []int32
	queue     []move

	// redist is the arena of step 3 and the migrate pass, memo the LPs
	// they solved in this solve.
	redist redistScratch
	memo   lpMemo
}

// heurPool is shared by every solve in the process: the seeders of
// simulations that run at once in one process solve on their own engine
// goroutines (two fleet services, a leader and a standby, each on its
// drive goroutine; seeder.TestConcurrentSimulations runs two), so a
// solve takes a state of its own from a sync.Pool.
var heurPool = sync.Pool{New: func() any {
	return &heurState{
		swIdx:    map[netmodel.SwitchID]int32{},
		seedIdx:  map[string]int32{},
		taskIdx:  map[string]int32{},
		capFirst: map[netmodel.Vector]int32{},
		shapes:   map[*Baked]int32{},
		redist:   redistScratch{prob: lp.New(lp.Maximize)},
		memo:     lpMemo{byHash: map[uint64]int32{}},
	}
}}

// reset prepares the state for a solve of in, which validate has
// checked (filling swIdx).
func (st *heurState) reset(in *Input) {
	st.in = in
	ns := len(in.Switches)
	st.remaining = zeroed(st.remaining, ns)
	st.pollMax = slices.Grow(st.pollMax[:0], ns)[:ns]
	st.used = zeroed(st.used, ns)
	st.pollsUsed = slices.Grow(st.pollsUsed[:0], ns)[:ns]
	st.seedsOn = growLists(st.seedsOn, ns)
	st.tasksOn = growLists(st.tasksOn, ns)
	st.slackCache = slices.Grow(st.slackCache[:0], ns)[:ns]
	st.slackOK = zeroed(st.slackOK, ns)
	st.greedyOn = zeroed(st.greedyOn, ns)
	st.dirty = zeroed(st.dirty, ns)
	st.maxCap = netmodel.Vector{}
	st.capClass = slices.Grow(st.capClass[:0], ns)[:ns]
	clear(st.capFirst)
	for i, sw := range in.Switches {
		st.remaining[i] = sw.Capacity
		for r, v := range sw.Capacity {
			if v > st.maxCap[r] {
				st.maxCap[r] = v
			}
		}
		c, ok := st.capFirst[sw.Capacity]
		if !ok {
			c = int32(i)
			st.capFirst[sw.Capacity] = c
		}
		st.capClass[i] = c
		st.pollMax[i].reset()
		st.seedsOn[i] = st.seedsOn[i][:0]
	}
	st.memo.reset()

	n := len(in.Seeds)
	st.order = slices.Grow(st.order[:0], n)[:n]
	for i := range st.order {
		st.order[i] = int32(i)
	}
	slices.SortFunc(st.order, func(a, b int32) int { return strings.Compare(in.Seeds[a].ID, in.Seeds[b].ID) })
	st.preps = slices.Grow(st.preps[:0], n)[:n]
	clear(st.shapes)
	for k, i := range st.order {
		s := &in.Seeds[i]
		p := &st.preps[k]
		*p = seedPrep{spec: s, baked: s.Baked}
		if p.baked == nil {
			p.baked = Bake(s)
		}
		num, ok := st.shapes[p.baked]
		if !ok {
			num = int32(len(st.shapes))
			st.shapes[p.baked] = num
		}
		p.shape = num
		p.min = p.baked.minimalAt(st.maxCap)
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
// solved Input and its Result: the seeds, their fragments and the memo's
// LP solutions. (Poll subjects stay behind in the poll loads until the
// next solve resets them.)
func (st *heurState) release() {
	st.in = nil
	clear(st.preps[:cap(st.preps)])
	for i := range st.tasks {
		st.tasks[i].name = ""
	}
	clear(st.taskIdx)
	clear(st.seedIdx)
	clear(st.shapes)
	st.memo.reset()
	heurPool.Put(st)
}

// mix64 is splitmix64's finalizer: every input bit moves every output
// bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// growLists returns ls with n empty lists, keeping their backing arrays.
func growLists(ls [][]int32, n int) [][]int32 {
	ls = slices.Grow(ls[:0], n)[:n]
	for i := range ls {
		ls[i] = ls[i][:0]
	}
	return ls
}

// zeroed returns b resized to n, every element zero.
func zeroed[T any](b []T, n int) []T {
	b = slices.Grow(b[:0], n)[:n]
	clear(b)
	return b
}

// mention marks the resources lin has a nonzero coefficient on.
func mention(used *[netmodel.NumRes]bool, lin poly.Linear) {
	for r, c := range lin.Coef {
		if c != 0 {
			used[r] = true
		}
	}
}

// row bakes scale*lin's coefficients over the case's variable list, in
// that order.
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
	if in.Touched == nil || len(in.Current) == 0 {
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
				!p.spec.Utility[a.Case].Feasible(a.Alloc, 1e-6) {
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
		st.used[i] = netmodel.Vector{}
		st.pollsUsed[i].reset()
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
			st.used[si] = st.used[si].Add(sansPoll(a.Alloc))
			st.pollsUsed[si].commit(p.spec, a.Alloc)
			st.tasksOn[si] = append(st.tasksOn[si], int32(ti))
		}
	}
	for i, sw := range in.Switches {
		over := st.pollsUsed[i].total() > sw.Capacity[netmodel.ResPoll]+1e-9
		for r, v := range st.used[i] {
			over = over || v > sw.Capacity[r]+1e-9
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
	// Commit pins in sorted seed order.
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
// remaining/capacity over its resource types, summed in resource order.
// Values are cached per switch until its remaining capacity changes —
// greedy placement reads this once per (seed, candidate) pair.
func (st *heurState) normalizedSlack(si int32) float64 {
	if st.slackOK[si] {
		return st.slackCache[si]
	}
	rem, capacity := &st.remaining[si], &st.in.Switches[si].Capacity
	total, count := 0.0, 0
	for r, c := range capacity {
		if c <= 0 || netmodel.Res(r) == netmodel.ResPoll {
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

// pollLoad is one switch's shared polling: each subject's largest
// demand, the subjects in the order they were first committed. total
// sums them in that order, so a switch's polling total is the same on
// every run.
type pollLoad struct {
	subjects []string
	max      []float64
}

func (l *pollLoad) reset() { l.subjects, l.max = l.subjects[:0], l.max[:0] }

// of returns subject's largest demand, 0 if none is committed.
func (l *pollLoad) of(subject string) float64 {
	if i := slices.Index(l.subjects, subject); i >= 0 {
		return l.max[i]
	}
	return 0
}

// commit raises each of spec's subjects to its demand at alloc.
func (l *pollLoad) commit(spec *SeedSpec, alloc netmodel.Vector) {
	for _, pd := range spec.Polls {
		d := pd.Rate.Eval(alloc)
		switch i := slices.Index(l.subjects, pd.Subject); {
		case i >= 0:
			l.max[i] = max(l.max[i], d)
		case d > 0:
			l.subjects = append(l.subjects, pd.Subject)
			l.max = append(l.max, d)
		}
	}
}

func (l *pollLoad) total() float64 {
	t := 0.0
	for _, v := range l.max {
		t += v
	}
	return t
}

// pollDelta computes the increase in total shared polling consumption on
// switch si if a seed with the given demands is added.
func (st *heurState) pollDelta(si int32, spec *SeedSpec, alloc netmodel.Vector) float64 {
	delta := 0.0
	for _, pd := range spec.Polls {
		demand := pd.Rate.Eval(alloc)
		cur := st.pollMax[si].of(pd.Subject)
		if demand > cur {
			delta += demand - cur
		}
	}
	return delta
}

// recomputePolls rebuilds the poll-sharing maxima of one switch from
// scratch (after removals, a max cannot be updated incrementally).
func (st *heurState) recomputePolls(si int32) {
	l := &st.pollMax[si]
	l.reset()
	for _, k := range st.seedsOn[si] {
		p := &st.preps[k]
		l.commit(p.spec, p.a.Alloc)
	}
}

// fits reports whether (alloc, polls) fit the remaining capacity of
// switch si.
func (st *heurState) fits(si int32, spec *SeedSpec, alloc netmodel.Vector) bool {
	if !st.remaining[si].AtLeast(sansPoll(alloc), 1e-9) {
		return false
	}
	if st.pollMax[si].total()+st.pollDelta(si, spec, alloc) > st.in.Switches[si].Capacity[netmodel.ResPoll]+1e-9 {
		return false
	}
	return true
}

// placeSeed commits one seed at its machine's minimal allocation.
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
	st.remaining[si] = st.remaining[si].Sub(sansPoll(a.Alloc))
	st.pollMax[si].commit(p.spec, a.Alloc)
	st.seedsOn[si] = append(st.seedsOn[si], k)
	st.invalidateSlack(si)
}

// sansPoll is alloc without its poll: polling is accounted through
// shared subjects (pollMax), not per seed.
func sansPoll(alloc netmodel.Vector) netmodel.Vector {
	alloc[netmodel.ResPoll] = 0
	return alloc
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
	st.remaining[si] = st.remaining[si].Add(sansPoll(p.a.Alloc))
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
					if !p.min.ok[ci] || !st.fits(si, p.spec, alloc) {
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

// redistScratch is step 3's arena: its LP and the lists the LP is
// assembled from, all reused from switch to switch and solve to solve.
type redistScratch struct {
	prob  *lp.Problem
	ids   []int32   // the switch's seeds, in ID order
	coefs []lp.Coef // one row being built; AddConstraint copies it
	obj   []lp.Coef
	// Per-resource usage sums (excluding poll, handled via subjects)
	// and poll subject variables, both in first-use order — row order
	// must not depend on map iteration, or degenerate LPs could pick
	// different vertices run to run.
	usageRes []netmodel.Res
	usage    [][]lp.Coef
	pollSubj []string
	pollVars []lp.Var
}

// addUsage adds v to resource r's capacity row.
func (rs *redistScratch) addUsage(r netmodel.Res, v lp.Var) {
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

// lpMemo holds every step-3 LP solved in one solve, by signature: the
// switch's capacity class and, in ID order, each resident seed's Baked
// number and case. That is everything the LP reads — rows come from the
// Baked case, poll variables are shared by its subjects, bounds and
// right-hand sides come from the capacity, and a variable is named by
// its resource alone — so two switches with one signature have one LP,
// bit for bit, and one answer. A "place all" task puts the same seeds
// of a machine on every switch of a class; the migrate pass re-solves
// each switch it rolls back.
type lpMemo struct {
	byHash  map[uint64]int32 // signature hash → newest entry with it
	entries []memoEntry
	// Arenas the entries index: per seed, its signature part and where
	// its variables sit; the seeds' resource variables back to back.
	seeds   []lpSeed
	resVars []lp.Var
}

// memoEntry is one solved LP: its signature's capacity class and seeds
// (seeds[lo:hi]) and its solution.
type memoEntry struct {
	sol    *lp.Solution
	next   int32 // older entry with the same hash, or -1
	class  int32
	lo, hi int32
}

// lpSeed is one seed of a step-3 LP: its part of the signature, and its
// variables — len(res) resource variables from resVars[vars] on, and the
// utility variable.
type lpSeed struct {
	shape, cs int32
	vars      int32
	util      lp.Var
}

// reset empties the memo, dropping its solutions.
func (m *lpMemo) reset() {
	clear(m.byHash)
	clear(m.entries)
	m.entries, m.seeds, m.resVars = m.entries[:0], m.seeds[:0], m.resVars[:0]
}

// signature hashes the signature of the LP of switch si holding ids.
func (st *heurState) signature(si int32, ids []int32) uint64 {
	h := mix64(uint64(st.capClass[si]))
	for _, k := range ids {
		p := &st.preps[k]
		h = mix64(h ^ uint64(p.shape)<<32 ^ uint64(uint32(p.a.Case)))
	}
	return h
}

// lookup returns the entry of the LP of switch si holding ids, whose
// signature hashes to h, or -1.
func (st *heurState) lookup(h uint64, si int32, ids []int32) int32 {
	m := &st.memo
	e, ok := m.byHash[h]
	if !ok {
		return -1
	}
next:
	for ; e >= 0; e = m.entries[e].next {
		en := &m.entries[e]
		if en.class != st.capClass[si] || int(en.hi-en.lo) != len(ids) {
			continue
		}
		for j, s := range m.seeds[en.lo:en.hi] {
			if p := &st.preps[ids[j]]; s.shape != p.shape || int(s.cs) != p.a.Case {
				continue next
			}
		}
		return e
	}
	return -1
}

// redistribute runs step 3 of Alg. 1 on one switch and commits the
// answer: maximize the sum of the placed seeds' utilities subject to
// their selected cases, the switch capacities, and the shared polling
// budget. The LP is solved once per signature and solve (see lpMemo).
// An empty switch or a non-optimal LP keeps the greedy allocation,
// which is feasible by construction.
func (st *heurState) redistribute(si int32) error {
	sw := &st.in.Switches[si]
	if testRedistErr != nil {
		if err := testRedistErr(sw.ID); err != nil {
			return fmt.Errorf("placement: redistribution on switch %d: %w", sw.ID, err)
		}
	}
	rs := &st.redist
	ids := append(rs.ids[:0], st.seedsOn[si]...)
	rs.ids = ids
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids) // ID order

	h := st.signature(si, ids)
	e := st.lookup(h, si, ids)
	if testMemo != nil && testMemo(sw.ID, e >= 0) {
		e = -1
	}
	if e < 0 {
		var err error
		if e, err = st.solveLP(si, ids, h); err != nil {
			return err
		}
	}
	m := &st.memo
	en := &m.entries[e]
	sol := en.sol
	if sol.Status != lp.Optimal {
		return nil
	}
	for j, k := range ids {
		p := &st.preps[k]
		res := p.baked.cases[p.a.Case].res
		s := &m.seeds[int(en.lo)+j]
		p.a.Alloc = outcomeAlloc(res, m.resVars[s.vars:int(s.vars)+len(res)], sol)
		p.a.Utility = sol.Value(s.util)
	}
	st.recomputePolls(si)
	// Update remaining capacity from actual allocations.
	rem := sw.Capacity
	for _, k := range ids {
		rem = rem.Sub(sansPoll(st.preps[k].a.Alloc))
	}
	st.remaining[si] = rem
	st.invalidateSlack(si)
	return nil
}

// solveLP builds and solves the LP of switch si holding ids, whose
// signature hashes to h, and adds it to the memo. It returns the entry.
func (st *heurState) solveLP(si int32, ids []int32, h uint64) (int32, error) {
	sw := &st.in.Switches[si]
	rs, m := &st.redist, &st.memo
	prob := rs.prob
	prob.Reset(lp.Maximize)
	rs.obj = rs.obj[:0]
	rs.usageRes, rs.usage = rs.usageRes[:0], rs.usage[:0]
	rs.pollSubj, rs.pollVars = rs.pollSubj[:0], rs.pollVars[:0]
	lo := int32(len(m.seeds))
	coefs := rs.coefs[:0]
	for _, k := range ids {
		p := &st.preps[k]
		b := p.baked
		cl := &b.cases[p.a.Case]
		off := len(m.resVars)
		for _, r := range cl.res {
			v := prob.AddVar(r.String(), 0, sw.Capacity[r])
			m.resVars = append(m.resVars, v)
			rs.addUsage(r, v)
		}
		rv := m.resVars[off:]
		// Utility variable with t <= each min-term.
		u := prob.AddVar("util", 0, lp.Inf)
		m.seeds = append(m.seeds, lpSeed{shape: p.shape, cs: int32(p.a.Case), vars: int32(off), util: u})
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
			pv := rs.pollVar(b.polls[pi].Subject, b.pollNames[pi])
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
		return -1, fmt.Errorf("placement: redistribution on switch %d: %w", sw.ID, err)
	}
	next, ok := m.byHash[h]
	if !ok {
		next = -1
	}
	e := int32(len(m.entries))
	m.byHash[h] = e
	m.entries = append(m.entries, memoEntry{sol: sol, next: next, class: st.capClass[si], lo: lo, hi: int32(len(m.seeds))})
	return e, nil
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
// resource the LP gives it more than 1e-9 of.
func outcomeAlloc(res []netmodel.Res, rv []lp.Var, sol *lp.Solution) netmodel.Vector {
	var alloc netmodel.Vector
	for ri, v := range rv {
		if x := sol.Value(v); x > 1e-9 {
			alloc[res[ri]] = x
		}
	}
	return alloc
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
	if !p.min.ok[a.Case] {
		return 0, false, nil
	}
	alloc := p.min.allocs[a.Case]
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
	st.unplaceSeed(k)
	if !p.min.ok[a.Case] || !st.fits(to, p.spec, p.min.allocs[a.Case]) {
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
