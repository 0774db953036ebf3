// Package tasks ships the 16 network monitoring and attack-detection
// use cases of Tab. I as Almanac programs, each deployable through the
// seeder. Together they exercise every language feature: polling,
// probing, time triggers, TCAM reactions, inheritance, inter-seed and
// harvester communication, maps/lists, and dynamic poll-rate changes.
package tasks

import (
	"errors"
	"fmt"
	"sort"

	"farm/internal/core"
	"farm/internal/harvest"
)

// Def is one catalogued M&M task.
type Def struct {
	Name        string
	Description string
	Source      string
	// Machines to deploy from the source (nil = all).
	Machines []string
	// DefaultExternals per machine.
	DefaultExternals map[string]map[string]core.Value
	// NewHarvester builds the task's default harvester logic (may
	// return nil for collect-only tasks).
	NewHarvester func() harvest.Logic
}

var registry []Def

func register(d Def) { registry = append(registry, d) }

// All returns every catalogued task, sorted by name.
func All() []Def {
	out := make([]Def, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ErrUnknownTask is what ByName's error wraps for a name outside the
// catalogue.
var ErrUnknownTask = errors.New("unknown task")

// ByName looks a task up.
func ByName(name string) (Def, error) {
	for _, d := range registry {
		if d.Name == name {
			return d, nil
		}
	}
	return Def{}, fmt.Errorf("tasks: %w %q", ErrUnknownTask, name)
}

// Names lists the catalogue.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, d := range all {
		names[i] = d.Name
	}
	return names
}
