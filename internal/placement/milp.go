package placement

import (
	"fmt"
	"math"
	"sort"
	"time"

	"farm/internal/lp"
	"farm/internal/netmodel"
)

// MILPOptions configures the exact solver.
type MILPOptions struct {
	// Timeout bounds branch & bound (the paper runs Gurobi with 1 s and
	// 10 min budgets); 0 means no limit.
	Timeout time.Duration
}

// MILP solves the placement problem exactly (modulo the time budget)
// with the §IV-D mixed-integer formulation: binary plc(s,n) per
// seed-case and candidate, tplc(t) per task, continuous res(s,n,r), and
// shared pollres(n,p), maximizing MU under (C1)-(C4). Products
// plc·f(res) are linearized with big-M constants, exploiting that (C3)
// forces res = 0 on unplaced pairs.
//
// The result reports DeadlineExceeded runs through the best incumbent
// found (like a time-boxed Gurobi run).
func MILP(in *Input, opts MILPOptions) (*Result, error) {
	start := time.Now()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	m := buildMILP(in)
	sol, err := m.prob.SolveMILP(lp.MILPOptions{Timeout: opts.Timeout})
	if err != nil {
		return nil, fmt.Errorf("placement: MILP: %w", err)
	}
	res := &Result{Placed: map[string]Assignment{}, Runtime: time.Since(start)}
	if sol.Status == lp.Infeasible || sol.Values == nil {
		for t := range m.tplc {
			res.DroppedTasks = append(res.DroppedTasks, t)
		}
		sort.Strings(res.DroppedTasks)
		return res, nil
	}
	for key, pv := range m.pairs {
		if sol.Value(pv.plc) < 0.5 {
			continue
		}
		s := &in.Seeds[key.seed]
		var alloc netmodel.Vector
		for _, r := range milpRes {
			if x := sol.Value(pv.res[r]); x > 1e-9 {
				alloc[r] = x
			}
		}
		res.Placed[s.ID] = Assignment{
			Switch:  key.sw,
			Alloc:   alloc,
			Case:    key.caseIdx,
			Utility: sol.Value(pv.util),
		}
	}
	for t, tv := range m.tplc {
		if sol.Value(tv) < 0.5 {
			res.DroppedTasks = append(res.DroppedTasks, t)
		}
	}
	sort.Strings(res.DroppedTasks)
	res.Utility = TotalUtility(in, res.Placed)
	return res, nil
}

// milpRes lists every resource but poll, which is budgeted through
// shared subjects, in resource order.
var milpRes = []netmodel.Res{netmodel.ResPCIe, netmodel.ResRAM, netmodel.ResTCAM, netmodel.ResVCPU}

// milpPair is one (seed, case, candidate switch) placement choice.
type milpPair struct {
	seed    int
	caseIdx int
	sw      netmodel.SwitchID
}

// milpPairVars are a milpPair's variables.
type milpPairVars struct {
	plc  lp.Var
	util lp.Var
	res  [netmodel.NumRes]lp.Var // all but poll
}

// milpModel is the formulation of one input: the problem and the
// variables its solution is read through.
type milpModel struct {
	prob  *lp.Problem
	pairs map[milpPair]*milpPairVars
	tplc  map[string]lp.Var
}

// buildMILP formulates in, which must be valid.
func buildMILP(in *Input) milpModel {
	prob := lp.New(lp.Maximize)

	// Big-M per utility: a bound no achievable utility exceeds.
	bigU := 1.0
	for i := range in.Seeds {
		for _, c := range in.Seeds[i].Utility {
			for _, term := range c.Util {
				bound := math.Abs(term.Const)
				for _, sw := range in.Switches {
					v := term.Const
					for r, c := range term.Coef {
						if c > 0 {
							v += c * sw.Capacity[r]
						}
					}
					if v > bound {
						bound = v
					}
				}
				if bound > bigU {
					bigU = bound
				}
			}
		}
	}
	bigU *= 2

	pairs := map[milpPair]*milpPairVars{}
	tplc := map[string]lp.Var{}
	var obj []lp.Coef

	// usage[sw][r] rows; pollres[sw][subject] vars, and pollRow[sw]
	// the shared-poll row over them in the order they are declared.
	usage := map[netmodel.SwitchID]*[netmodel.NumRes][]lp.Coef{}
	pollres := map[netmodel.SwitchID]map[string]lp.Var{}
	pollRow := map[netmodel.SwitchID][]lp.Coef{}
	for _, sw := range in.Switches {
		usage[sw.ID] = &[netmodel.NumRes][]lp.Coef{}
		pollres[sw.ID] = map[string]lp.Var{}
	}

	taskNames := map[string]bool{}
	for i := range in.Seeds {
		taskNames[in.Seeds[i].Task] = true
	}
	ordered := make([]string, 0, len(taskNames))
	for t := range taskNames {
		ordered = append(ordered, t)
	}
	sort.Strings(ordered)
	for _, t := range ordered {
		tplc[t] = prob.AddBinary("tplc." + t)
	}

	for si := range in.Seeds {
		s := &in.Seeds[si]
		// C1: sum over (case, switch) of plc == tplc(task).
		c1 := []lp.Coef{}
		for ci, c := range s.Utility {
			for _, swID := range s.Candidates {
				sw, _ := in.switchByID(swID)
				key := milpPair{si, ci, swID}
				pv := &milpPairVars{}
				pv.plc = prob.AddBinary(fmt.Sprintf("plc.%s.%d.%d", s.ID, ci, swID))
				c1 = append(c1, lp.Coef{Var: pv.plc, Val: 1})
				for _, r := range milpRes {
					rv := prob.AddVar(fmt.Sprintf("res.%s.%d.%d.%s", s.ID, ci, swID, r), 0, sw.Capacity[r])
					pv.res[r] = rv
					// C3: res <= cap * plc.
					prob.AddConstraint([]lp.Coef{{Var: rv, Val: 1}, {Var: pv.plc, Val: -sw.Capacity[r]}}, lp.LE, 0)
					usage[swID][r] = append(usage[swID][r], lp.Coef{Var: rv, Val: 1})
				}
				// C2: case constraints, relaxed when unplaced:
				// con(res) + M(1-plc) >= 0.
				for _, con := range c.Constraints {
					coefs := []lp.Coef{}
					for _, r := range milpRes {
						if c := con.Coef[r]; c != 0 {
							coefs = append(coefs, lp.Coef{Var: pv.res[r], Val: c})
						}
					}
					// bigC: worst violation at res=0 is |con.Const|.
					bigC := math.Abs(con.Const) + 1
					coefs = append(coefs, lp.Coef{Var: pv.plc, Val: -bigC})
					prob.AddConstraint(coefs, lp.GE, -con.Const-bigC)
				}
				// Utility: u >= 0, u <= bigU*plc, u <= term(res) + bigU(1-plc).
				pv.util = prob.AddVar(fmt.Sprintf("u.%s.%d.%d", s.ID, ci, swID), 0, lp.Inf)
				prob.AddConstraint([]lp.Coef{{Var: pv.util, Val: 1}, {Var: pv.plc, Val: -bigU}}, lp.LE, 0)
				for _, term := range c.Util {
					// u <= term(res) + bigU*(1-plc), i.e.
					// u + bigU*plc - term_vars(res) <= term.Const + bigU.
					coefs := []lp.Coef{{Var: pv.util, Val: 1}, {Var: pv.plc, Val: bigU}}
					for _, r := range milpRes {
						if c := term.Coef[r]; c != 0 {
							coefs = append(coefs, lp.Coef{Var: pv.res[r], Val: -c})
						}
					}
					prob.AddConstraint(coefs, lp.LE, term.Const+bigU)
				}
				obj = append(obj, lp.Coef{Var: pv.util, Val: 1})
				// Polling: pollres(n,p) >= rate(res) - bigP(1-plc).
				for _, pd := range s.Polls {
					pr, ok := pollres[swID][pd.Subject]
					if !ok {
						pr = prob.AddVar(fmt.Sprintf("pollres.%d.%s", swID, pd.Subject), 0, lp.Inf)
						pollres[swID][pd.Subject] = pr
						pollRow[swID] = append(pollRow[swID], lp.Coef{Var: pr, Val: 1})
					}
					// Worst-case demand bound for big-M.
					bigP := math.Abs(pd.Rate.Const) + 1
					for r, c := range pd.Rate.Coef {
						if c > 0 {
							bigP += c * sw.Capacity[r]
						}
					}
					coefs := []lp.Coef{{Var: pr, Val: 1}, {Var: pv.plc, Val: -bigP}}
					for _, r := range milpRes {
						if c := pd.Rate.Coef[r]; c != 0 {
							coefs = append(coefs, lp.Coef{Var: pv.res[r], Val: -c})
						}
					}
					prob.AddConstraint(coefs, lp.GE, pd.Rate.Const-bigP)
				}
				pairs[key] = pv
			}
		}
		c1 = append(c1, lp.Coef{Var: tplc[s.Task], Val: -1})
		prob.AddConstraint(c1, lp.EQ, 0)
	}

	// C4: per-switch capacity and shared poll budget.
	for _, sw := range in.Switches {
		for _, r := range milpRes {
			if coefs := usage[sw.ID][r]; len(coefs) > 0 {
				prob.AddConstraint(coefs, lp.LE, sw.Capacity[r])
			}
		}
		if coefs := pollRow[sw.ID]; len(coefs) > 0 {
			prob.AddConstraint(coefs, lp.LE, sw.Capacity[netmodel.ResPoll])
		}
	}

	prob.SetObjective(obj, 0)
	return milpModel{prob, pairs, tplc}
}
