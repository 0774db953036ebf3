// Package placement implements FARM's seed placement optimization (§IV
// of the paper): the monitoring-utility maximization model with
// constraints (C1)-(C4), polling-aggregation sharing, and migration
// overhead; solved either exactly by a MILP (the Gurobi role in Fig. 7)
// or by the scalable Alg. 1 heuristic (greedy placement by task
// min-utility, per-switch LP resource redistribution, migration by
// decreasing benefit).
package placement

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"farm/internal/lp"
	"farm/internal/netmodel"
	"farm/internal/poly"
)

// PollDemand is one poll variable's contribution to the shared polling
// resource: polls per second as a linear polynomial of the seed's
// allocated resources (the paper's 1/y.ival requirement). A switch's
// ResPoll capacity is in polls/s too: §IV-B's α_poll is 1.
type PollDemand struct {
	Subject string // φ_enc subject key; equal keys share polling
	Rate    poly.Linear
}

// SeedSpec is the optimizer's view of one seed (§III-B outputs).
type SeedSpec struct {
	ID         string
	Task       string
	Candidates []netmodel.SwitchID // N^s, non-empty
	Utility    poly.Utility        // cases of (C^s, u^s)
	Polls      []PollDemand
	// Baked optionally carries this seed's step-3 LP fragments, made by
	// Bake from this spec's Utility and Polls. The caller owns it and may
	// hand the same value to every solve, and to every seed with those
	// slices (the seeder keeps one per machine, externals value and
	// utility state in its program store); nil bakes per solve.
	Baked *Baked
}

// SwitchInfo is the optimizer's view of one switch.
type SwitchInfo struct {
	ID       netmodel.SwitchID
	Capacity netmodel.Vector // ares(n, ·)
}

// Assignment is one seed's placement decision.
type Assignment struct {
	Switch  netmodel.SwitchID
	Alloc   netmodel.Vector
	Case    int // selected utility case
	Utility float64
}

// Input is a full placement problem. A solve reads it and writes none of
// it, including the SeedSpec.Baked values it shares with other solves —
// except to publish a Baked's minimal allocations, once per capacity
// vector, which nothing writes afterwards.
type Input struct {
	Switches []SwitchInfo
	Seeds    []SeedSpec
	// Current is the existing placement (seed ID → assignment);
	// empty/nil for a fresh deployment. The heuristic's migration pass
	// and the migration-overhead accounting use it.
	Current map[string]Assignment
	// MigrationCost is the utility penalty charged per migration when
	// scoring candidate moves; 0 means DefaultMigrationCost.
	MigrationCost float64
	// DisableMigration turns off the heuristic's migration pass
	// (ablation).
	DisableMigration bool
	// SkipRedistribution turns off the heuristic's per-switch LP
	// resource redistribution, leaving every seed at its greedy minimal
	// allocation (ablation: isolates step 3 of Alg. 1).
	SkipRedistribution bool
	// Touched lists the switches whose capacity or hosted workload
	// changed since the solve that produced Current. A non-nil Touched
	// (possibly empty) arms the warm-start path: tasks whose current
	// assignments are still valid and feasible keep them without
	// re-running greedy placement, and only the affected switch
	// neighborhoods are re-solved. nil means "unknown" and forces the
	// classic full solve, so existing callers are unaffected. A full
	// solve is not a from-scratch one: greedy still prefers a seed's
	// Current switch, since keeping a placement ranks above utility.
	Touched []netmodel.SwitchID
}

// DefaultMigrationCost approximates the transient double resource usage
// of a migration (§IV-B-a) as a flat utility penalty a move must beat.
const DefaultMigrationCost = 1.0

// DefaultFullThreshold is the warm-start fallback point: when more than
// this fraction of tasks must re-place, pinning buys little and the
// heuristic runs the classic full solve instead.
const DefaultFullThreshold = 0.25

// Result is the outcome of a placement run.
type Result struct {
	Placed       map[string]Assignment
	DroppedTasks []string // tasks removed because a seed did not fit (C1)
	Utility      float64  // the MU objective over placed seeds
	Migrations   int
	Runtime      time.Duration
}

func (in *Input) migrationCost() float64 {
	if in.MigrationCost == 0 {
		return DefaultMigrationCost
	}
	return in.MigrationCost
}

func (in *Input) switchByID(id netmodel.SwitchID) (SwitchInfo, bool) {
	for _, sw := range in.Switches {
		if sw.ID == id {
			return sw, true
		}
	}
	return SwitchInfo{}, false
}

// Validate checks structural sanity of the input.
func (in *Input) Validate() error {
	return in.validate(map[netmodel.SwitchID]int32{}, map[string]int32{})
}

// validate is Validate with the sets it builds passed in (and cleared
// first), so that a pooled solve reuses them: swIdx maps each switch ID
// to its index in Switches, seedIdx each seed ID to its index in Seeds.
func (in *Input) validate(swIdx map[netmodel.SwitchID]int32, seedIdx map[string]int32) error {
	clear(swIdx)
	clear(seedIdx)
	for i, sw := range in.Switches {
		if _, dup := swIdx[sw.ID]; dup {
			return fmt.Errorf("placement: duplicate switch %d", sw.ID)
		}
		swIdx[sw.ID] = int32(i)
	}
	for i := range in.Seeds {
		s := &in.Seeds[i]
		if s.ID == "" {
			return fmt.Errorf("placement: seed with empty ID")
		}
		if _, dup := seedIdx[s.ID]; dup {
			return fmt.Errorf("placement: duplicate seed %s", s.ID)
		}
		seedIdx[s.ID] = int32(i)
		if len(s.Candidates) == 0 {
			return fmt.Errorf("placement: seed %s has no candidate switches", s.ID)
		}
		for _, c := range s.Candidates {
			if _, ok := swIdx[c]; !ok {
				return fmt.Errorf("placement: seed %s candidate %d is not a known switch", s.ID, c)
			}
		}
		if len(s.Utility) == 0 {
			return fmt.Errorf("placement: seed %s has no utility cases", s.ID)
		}
		if s.Baked != nil && !s.Baked.matches(s) {
			return fmt.Errorf("placement: seed %s: Baked was made from another Utility or Polls", s.ID)
		}
	}
	return nil
}

// CheckFeasible verifies that a result satisfies (C1)-(C4): task
// all-or-nothing, per-case constraints, candidate-set membership, and
// per-switch capacities including shared polling. Used by property
// tests and as a paranoia check after optimization. It walks tasks in
// Input order, seeds in ID order and switches in Input order, so a
// result with several violations always reports the same one.
func CheckFeasible(in *Input, res *Result) error {
	placedByTask := map[string]int{}
	seedsByTask := map[string]int{}
	seedByID := map[string]*SeedSpec{}
	var tasks []string
	for i := range in.Seeds {
		s := &in.Seeds[i]
		seedByID[s.ID] = s
		if seedsByTask[s.Task] == 0 {
			tasks = append(tasks, s.Task)
		}
		seedsByTask[s.Task]++
		if _, ok := res.Placed[s.ID]; ok {
			placedByTask[s.Task]++
		}
	}
	// C1: all of a task's seeds placed, or none.
	for _, task := range tasks {
		if n := placedByTask[task]; n > 0 && n != seedsByTask[task] {
			return fmt.Errorf("placement: task %s has %d of %d seeds placed", task, n, seedsByTask[task])
		}
	}
	used := map[netmodel.SwitchID]netmodel.Vector{}
	pollUsed := map[netmodel.SwitchID]map[string]float64{}
	for _, id := range sortedKeys(res.Placed) {
		a := res.Placed[id]
		s, ok := seedByID[id]
		if !ok {
			return fmt.Errorf("placement: unknown seed %s in result", id)
		}
		if !slices.Contains(s.Candidates, a.Switch) {
			return fmt.Errorf("placement: seed %s placed outside its candidate set", id)
		}
		if a.Case < 0 || a.Case >= len(s.Utility) {
			return fmt.Errorf("placement: seed %s selected case %d of %d", id, a.Case, len(s.Utility))
		}
		cs := s.Utility[a.Case]
		if !cs.Feasible(a.Alloc, 1e-6) {
			return fmt.Errorf("placement: seed %s allocation %v violates case %d constraints", id, a.Alloc, a.Case)
		}
		if pollUsed[a.Switch] == nil {
			if _, ok := in.switchByID(a.Switch); !ok {
				return fmt.Errorf("placement: seeds on unknown switch %d", a.Switch)
			}
			pollUsed[a.Switch] = map[string]float64{}
		}
		used[a.Switch] = used[a.Switch].Add(a.Alloc)
		for _, pd := range s.Polls {
			demand := pd.Rate.Eval(a.Alloc)
			if demand > pollUsed[a.Switch][pd.Subject] {
				pollUsed[a.Switch][pd.Subject] = demand
			}
		}
	}
	for _, sw := range in.Switches {
		u, ok := used[sw.ID]
		if !ok {
			continue
		}
		for r, v := range u {
			if netmodel.Res(r) == netmodel.ResPoll {
				continue // polling is checked via shared subjects below
			}
			if v > sw.Capacity[r]+1e-6 {
				return fmt.Errorf("placement: switch %d over capacity on %s: %g > %g", sw.ID, netmodel.Res(r), v, sw.Capacity[r])
			}
		}
		total := 0.0
		polls := pollUsed[sw.ID]
		for _, subj := range sortedKeys(polls) {
			total += polls[subj]
		}
		if total > sw.Capacity[netmodel.ResPoll]+1e-6 {
			return fmt.Errorf("placement: switch %d over polling capacity: %g > %g", sw.ID, total, sw.Capacity[netmodel.ResPoll])
		}
	}
	return nil
}

// sortedKeys returns m's keys in increasing order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Digest folds the full placement decision — every assignment's switch,
// case, utility, and allocation, plus dropped tasks and the migration
// count — into one FNV-1a value. Two results are byte-identical iff
// their digests match; the determinism tests compare full and
// warm-start runs through it.
func (r *Result) Digest() string {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		mix(uint64(len(s)))
	}
	for _, id := range sortedKeys(r.Placed) {
		a := r.Placed[id]
		mixStr(id)
		mix(uint64(a.Switch))
		mix(uint64(a.Case))
		mix(math.Float64bits(a.Utility))
		for res, v := range a.Alloc {
			if v != 0 {
				mixStr(netmodel.Res(res).String())
				mix(math.Float64bits(v))
			}
		}
	}
	for _, t := range r.DroppedTasks {
		mixStr(t)
	}
	mix(uint64(r.Migrations))
	return fmt.Sprintf("%016x", h)
}

// TotalUtility recomputes MU from a result (diagnostics).
func TotalUtility(in *Input, placed map[string]Assignment) float64 {
	total := 0.0
	for i := range in.Seeds {
		s := &in.Seeds[i]
		if a, ok := placed[s.ID]; ok {
			total += s.Utility[a.Case].Util.Eval(a.Alloc)
		}
	}
	return total
}

// minimalAlloc returns the cheapest allocation satisfying one utility
// case, or false if the case is infeasible even alone on the switch.
// Fast path: constraints of the form a*r - c >= 0 with a single
// variable become lower bounds; anything more general falls back to a
// small LP.
func minimalAlloc(c poly.Case, capacity netmodel.Vector) (netmodel.Vector, bool) {
	var alloc netmodel.Vector
	simple := true
	for _, con := range c.Constraints {
		// The constraint's variables: how many, and the one when there is
		// only one.
		n, r, a := 0, 0, 0.0
		for v, coef := range con.Coef {
			if coef != 0 {
				n, r, a = n+1, v, coef
			}
		}
		switch n {
		case 0:
			if con.Const < -1e-9 {
				return alloc, false // constant infeasible
			}
		case 1:
			if a <= 0 {
				simple = false
			} else if lb := -con.Const / a; lb > alloc[r] {
				// a*r + const >= 0 -> r >= -const/a
				alloc[r] = lb
			}
		default:
			simple = false
		}
	}
	if simple {
		return alloc, capacity.AtLeast(alloc, 1e-9)
	}
	// General case: LP minimizing the (normalized) footprint.
	prob := lp.New(lp.Minimize)
	var used [netmodel.NumRes]bool
	for _, con := range c.Constraints {
		mention(&used, con)
	}
	var vars [netmodel.NumRes]lp.Var
	var obj []lp.Coef
	for r, ok := range used {
		if !ok {
			continue
		}
		ub := capacity[r]
		vars[r] = prob.AddVar(netmodel.Res(r).String(), 0, ub)
		w := 1.0
		if ub > 0 {
			w = 1 / ub
		}
		obj = append(obj, lp.Coef{Var: vars[r], Val: w})
	}
	for _, con := range c.Constraints {
		var coefs []lp.Coef
		for r, coef := range con.Coef {
			if coef != 0 {
				coefs = append(coefs, lp.Coef{Var: vars[r], Val: coef})
			}
		}
		prob.AddConstraint(coefs, lp.GE, -con.Const)
	}
	prob.SetObjective(obj, 0)
	sol, err := prob.Solve()
	var out netmodel.Vector
	if err != nil || sol.Status != lp.Optimal {
		return out, false
	}
	for r, ok := range used {
		if !ok {
			continue
		}
		if x := sol.Value(vars[r]); x > 1e-9 {
			out[r] = x
		}
	}
	return out, true
}

// caseUtilityAt evaluates a case's min-of-linear utility.
func caseUtilityAt(c poly.Case, alloc netmodel.Vector) float64 {
	u := c.Util.Eval(alloc)
	if math.IsInf(u, 1) {
		return 0
	}
	return u
}
