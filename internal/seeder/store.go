package seeder

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/placement"
	"farm/internal/poly"
	"farm/internal/soil"
)

// maxIdleSources bounds how many sources that no live task references
// stay compiled. Retire-then-resubmit is what operators (and the Tab. I
// catalogue, 18 sources) do, so an entry outlives its last task; past
// the bound the longest-idle entry goes first.
const maxIdleSources = 64

// testAnalysis, when non-nil (tests only), is told of every analysis
// lookup — whether it hit — and returns whether to run the analysis
// afresh anyway: the oracle the stored analyses are checked against.
var testAnalysis func(hit bool) (fresh bool)

// programStore compiles each task source once (§III-B: the seeder
// compiles a task and ships the result to the switches it chose) and
// keeps each machine's analysis of the externals value it was last
// submitted with. It is keyed by the
// source text; an entry is pinned while a live task references it and
// idles, under maxIdleSources, once none does. Every program and
// analysis stored is immutable and independent of the fabric, so every
// seed of every task submitted from the same source (and, for an
// analysis, with the same externals) shares it.
type programStore struct {
	bySource map[string]*storedSource
	idle     []*storedSource // unreferenced entries, longest idle first
}

// storedSource is one parsed source and the machines built from it so
// far (a machine is built the first time a task deploys it).
type storedSource struct {
	source   string
	prog     *almanac.Program
	names    []string // every machine of the source, in declaration order
	machines map[string]*storedMachine
	refs     int  // live tasks submitted from this source
	bad      bool // a machine failed to build: do not keep past the last reference
}

// storedMachine is one machine ready to analyse and to deploy.
type storedMachine struct {
	// cm is sema's output: what the seeder analyses and resolves.
	cm *almanac.CompiledMachine
	// prog is what soils run. It is lowered from the machine as decoded
	// from its XML wire form (§V-A-d), so the codec stays on the
	// deployment path — once per machine instead of once per seed.
	prog     *core.Program
	warnings []string // almanac.Lint(cm), logged on every submit
	// an is the machine's analysis of the externals value it was last
	// submitted with, or nil before its first submit. Every caller binds
	// one value per machine (the catalogue's defaults), so one is kept; a
	// submit of another value replaces it, and seeds hold on to theirs
	// while they live.
	an *analysis
}

// analysis is what the seeder derives from a machine and one externals
// value, and from nothing else: the constant environment its place
// directives resolve in (§III-B step 1), the utility of every state
// (step 2) with its step-3 LP fragments, the poll demands (step 3), and
// the wire program prepared for soils with its trigger analysis. It is
// immutable once built.
type analysis struct {
	externals map[string]core.Value // a private copy of the value: the key
	env       map[string]almanac.Const
	states    map[string]stateAnalysis
	polls     []placement.PollDemand
	prep      *soil.Prepared
	// err is step 2's or step 3's failure, which every submit of the
	// value fails with once its place directives have resolved.
	err error
}

// stateAnalysis is one state's utility and its LP fragments.
type stateAnalysis struct {
	util  poly.Utility
	baked *placement.Baked
}

func newProgramStore() *programStore {
	return &programStore{bySource: map[string]*storedSource{}}
}

// acquire returns the entry for a source, parsing it on first sight, and
// takes a reference the caller gives back with release. A source that
// does not parse is not stored.
func (ps *programStore) acquire(source string) (*storedSource, error) {
	e, ok := ps.bySource[source]
	if !ok {
		prog, err := almanac.Parse(source)
		if err != nil {
			return nil, err
		}
		e = &storedSource{source: source, prog: prog, machines: map[string]*storedMachine{}}
		for _, m := range prog.Machines {
			e.names = append(e.names, m.Name)
		}
		ps.bySource[source] = e
	} else if e.refs == 0 {
		i := slices.Index(ps.idle, e)
		ps.idle = slices.Delete(ps.idle, i, i+1)
	}
	e.refs++
	return e, nil
}

// release gives a reference back. An entry nothing references any more
// stays warm unless one of its machines failed to build; the idle set is
// then trimmed to its bound.
func (ps *programStore) release(e *storedSource) {
	e.refs--
	if e.refs > 0 {
		return
	}
	if e.bad {
		delete(ps.bySource, e.source)
		return
	}
	ps.idle = append(ps.idle, e)
	if len(ps.idle) > maxIdleSources {
		delete(ps.bySource, ps.idle[0].source)
		ps.idle = slices.Delete(ps.idle, 0, 1)
	}
}

// machine returns the named machine of the source, building it on first
// use: sema, lint, XML encode, XML decode, lower and link. A machine
// that fails any step is not stored.
func (e *storedSource) machine(name string) (*storedMachine, error) {
	if m, ok := e.machines[name]; ok {
		return m, nil
	}
	m, err := buildMachine(e.prog, name)
	if err != nil {
		e.bad = true
		return nil, err
	}
	e.machines[name] = m
	return m, nil
}

func buildMachine(prog *almanac.Program, name string) (*storedMachine, error) {
	cm, err := almanac.CompileMachine(prog, name)
	if err != nil {
		return nil, err
	}
	xmlData, err := almanac.EncodeXML(cm)
	if err != nil {
		return nil, fmt.Errorf("machine %s: %w", name, err)
	}
	wire, err := almanac.DecodeXML(xmlData)
	if err != nil {
		return nil, fmt.Errorf("machine %s: %w", name, err)
	}
	p, err := core.Compile(wire)
	if err != nil {
		return nil, fmt.Errorf("machine %s: %w", name, err)
	}
	return &storedMachine{cm: cm, prog: p, warnings: almanac.Lint(cm)}, nil
}

// analysisFor returns the machine's analysis for externals: the stored
// one if it was run against the same value, else a fresh one, which
// replaces it.
func (m *storedMachine) analysisFor(externals map[string]core.Value) *analysis {
	hit := m.an != nil && sameExternals(m.an.externals, externals)
	if fresh := testAnalysis != nil && testAnalysis(hit); !hit || fresh {
		m.an = m.analyse(cloneExternals(externals))
	}
	return m.an
}

// analyse runs the machine's externals-dependent analyses against
// externals, which the result keeps.
func (m *storedMachine) analyse(externals map[string]core.Value) *analysis {
	a := &analysis{externals: externals, env: core.ConstEnv(m.cm, externals)}
	a.err = a.derive(m)
	return a
}

// derive runs steps 2 and 3 against the analysis's env, bakes each
// state's LP fragments and prepares the wire program.
func (a *analysis) derive(m *storedMachine) error {
	cm := m.cm
	// Step 2: utility per state.
	a.states = make(map[string]stateAnalysis, len(cm.States))
	for _, st := range cm.States {
		u, err := almanac.AnalyzeUtility(st.Util, a.env)
		if err != nil {
			return fmt.Errorf("state %s: %w", st.Name, err)
		}
		a.states[st.Name] = stateAnalysis{util: u}
	}
	// Step 3: poll variables → subjects and rates.
	pis, err := almanac.AnalyzePolls(cm, a.env)
	if err != nil {
		return err
	}
	for _, pi := range pis {
		if pi.TType == almanac.TrigTime {
			continue // time triggers do not touch the ASIC
		}
		if pi.What.Kind != almanac.ConstFilter {
			return fmt.Errorf("trigger %s: subject not resolvable at deployment", pi.Name)
		}
		key, err := soil.SubjectKey(pi.What)
		if err != nil {
			return fmt.Errorf("trigger %s: %w", pi.Name, err)
		}
		a.polls = append(a.polls, placement.PollDemand{Subject: key, Rate: pi.RatePerSec})
	}
	for name, sa := range a.states {
		sa.baked = placement.Bake(&placement.SeedSpec{Utility: sa.util, Polls: a.polls})
		a.states[name] = sa
	}
	a.prep, err = soil.Prepare(m.prog, a.externals)
	return err
}

// cloneExternals deep-copies a binding, so no later write of the
// caller's reaches a stored analysis.
func cloneExternals(externals map[string]core.Value) map[string]core.Value {
	if len(externals) == 0 {
		return nil
	}
	out := make(map[string]core.Value, len(externals))
	for k, v := range externals {
		out[k] = core.CloneValue(v)
	}
	return out
}

// sameExternals reports whether two bindings are one externals value:
// the same names, each bound to values sameValue calls the same.
func sameExternals(a, b map[string]core.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		if y, ok := b[k]; !ok || !sameValue(x, y) {
			return false
		}
	}
	return true
}

// sameValue is core.Equal made exact: the values must also have the same
// type, and a float the same bits. core.Equal calls int64(1) and 1.0, or
// 0 and -0, equal, but a seed bound to one can tell it from the other.
// Records, maps and batches, whose contents core.Equal compares that
// loosely, are never the same: a store miss is always correct.
func sameValue(x, y core.Value) bool {
	switch x := x.(type) {
	case int64:
		y, ok := y.(int64)
		return ok && x == y
	case float64:
		y, ok := y.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case core.List:
		y, ok := y.(core.List)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	case core.StructVal, *core.MapVal, *core.Batch:
		return false
	}
	return reflect.TypeOf(x) == reflect.TypeOf(y) && core.Equal(x, y)
}
