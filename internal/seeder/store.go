package seeder

import (
	"fmt"
	"slices"

	"farm/internal/almanac"
	"farm/internal/core"
)

// maxIdleSources bounds how many sources that no live task references
// stay compiled. Retire-then-resubmit is what operators (and the Tab. I
// catalogue, 18 sources) do, so an entry outlives its last task; past
// the bound the longest-idle entry goes first.
const maxIdleSources = 64

// programStore compiles each task source once (§III-B: the seeder
// compiles a task and ships the result to the switches it chose). It is
// keyed by the source text; an entry is pinned while a live task
// references it and idles, under maxIdleSources, once none does.
// Everything stored is immutable and independent of externals and of
// the fabric, so every seed of every task submitted from the same
// source shares it.
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
