package core

import (
	"fmt"
	"time"

	"farm/internal/almanac"
	"farm/internal/dataplane"
	"farm/internal/netmodel"
)

// SendDest identifies a message destination from a seed's perspective.
type SendDest struct {
	Harvester bool
	Machine   string // target machine name when not harvester
	Dst       string // optional destination selector (switch name); "" = broadcast
}

// MsgSource identifies where a received message came from.
type MsgSource struct {
	Harvester bool
	Machine   string // sending machine name
}

// Host is the seed's window onto its switch and network — implemented
// by the soil. All methods are called from the seed's event handlers on
// the simulation loop.
type Host interface {
	// Now returns the current (virtual) time.
	Now() time.Duration
	// Resources returns the seed's current resource allocation (res()).
	// Nothing writes the grant it points to: a new allocation comes as
	// a new grant, so a res() value a seed keeps stays what it read.
	Resources() *netmodel.Vector
	// AddTCAMRule installs a monitoring TCAM rule (local reaction).
	AddTCAMRule(r dataplane.Rule) error
	// RemoveTCAMRule removes the rule with exactly the given filter.
	RemoveTCAMRule(f dataplane.Filter) bool
	// GetTCAMRule fetches the rule with exactly the given filter.
	GetTCAMRule(f dataplane.Filter) (dataplane.Rule, bool)
	// Send delivers a value to the harvester or other seeds.
	Send(to SendDest, v Value)
	// SetTriggerInterval retunes a trigger variable's period (ms).
	SetTriggerInterval(trigger string, ivalMillis float64)
	// Exec runs external code (the ML task hook, List. 1's exec()).
	Exec(command string, arg Value) (Value, error)
	// Log records a diagnostic message.
	Log(format string, args ...any)
}

// machineHost is the Host a seed's code runs against: the deployment's,
// with the machine's name noted on every TCAM rule it installs. It is
// all of a seed that a builtin sees.
type machineHost struct {
	Host
	machine string
}

func (h machineHost) AddTCAMRule(r dataplane.Rule) error {
	r.Note = h.machine
	return h.Host.AddTCAMRule(r)
}

// recvMatches reports whether a recv event's pattern (type and source)
// accepts a message.
func recvMatches(trg almanac.EventTrigger, from MsgSource, v Value) bool {
	if trg.FromHarvester && !from.Harvester {
		return false
	}
	if trg.FromMachine != "" && trg.FromMachine != from.Machine {
		return false
	}
	switch trg.RecvType {
	case almanac.TUnknown:
		return true
	case almanac.TInt, almanac.TLong:
		_, ok := v.(int64)
		return ok
	case almanac.TFloat:
		_, ok := v.(float64)
		return ok
	case almanac.TBool:
		_, ok := v.(bool)
		return ok
	case almanac.TString:
		_, ok := v.(string)
		return ok
	case almanac.TList:
		_, ok := v.(List)
		return ok
	case almanac.TMap:
		_, ok := v.(*MapVal)
		return ok
	case almanac.TFilter:
		_, ok := v.(FilterVal)
		return ok
	case almanac.TAction:
		_, ok := v.(ActionVal)
		return ok
	case almanac.TPacket:
		_, ok := v.(PacketVal)
		return ok
	case almanac.TStruct:
		sv, ok := v.(StructVal)
		return ok && (trg.RecvTypeName == "" || sv.Type() == trg.RecvTypeName)
	}
	return false
}

// --- Migration snapshot (§IV-B-a, §V-B) ---

// Snapshot is a seed's full mutable state, transferable to another
// switch during migration. Values are deep copies.
type Snapshot struct {
	Machine   string
	State     string
	Env       map[string]Value
	StateVars map[string]map[string]Value
}

// checkNames is a Restore's check that the seed declares every name the
// snapshot carries, made before anything is written. It reports the
// first name the seed lacks, the same one whatever the maps' order: the
// smallest unknown machine variable, else the smallest unknown state,
// else the smallest unknown variable of the smallest state with one.
func (snap *Snapshot) checkNames(hasVar, hasState func(name string) bool, hasStateVar func(state, name string) bool) error {
	if k, ok := smallestMissing(snap.Env, hasVar); ok {
		return fmt.Errorf("core: snapshot variable %s unknown", k)
	}
	if st, ok := smallestMissing(snap.StateVars, hasState); ok {
		return fmt.Errorf("core: snapshot state %s unknown", st)
	}
	var bad, badVar string
	found := false
	for st, vars := range snap.StateVars {
		if found && st >= bad {
			continue
		}
		if k, ok := smallestMissing(vars, func(k string) bool { return hasStateVar(st, k) }); ok {
			bad, badVar, found = st, k, true
		}
	}
	if found {
		return fmt.Errorf("core: snapshot state %s has no variable %s", bad, badVar)
	}
	return nil
}

// smallestMissing returns the smallest key of m that has rejects.
func smallestMissing[V any](m map[string]V, has func(string) bool) (k string, found bool) {
	for name := range m {
		if (!found || name < k) && !has(name) {
			k, found = name, true
		}
	}
	return k, found
}
