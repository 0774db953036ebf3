// Package harvest implements the harvester framework: the optional
// per-task centralized component that collects reports from a task's
// seeds and takes global management actions when seed-local decisions
// are insufficient (§II-C-a of the FARM paper). A harvester keeps no
// reports: its logic folds each one as it arrives, and the harvester
// counts them.
package harvest

import (
	"time"

	"farm/internal/core"
	"farm/internal/soil"
)

// Context is what harvester logic may do: talk back to the task's seeds
// and observe time. The seeder wires the implementation (message routing
// over the control network with its latency).
type Context interface {
	// SendToSeeds delivers v to seeds of the given machine type;
	// switchName "" broadcasts to all instances.
	SendToSeeds(machine, switchName string, v core.Value)
	// Now returns the current virtual time.
	Now() time.Duration
	// Log records a diagnostic line.
	Log(format string, args ...any)
}

// Logic is user-supplied harvester behaviour.
type Logic interface {
	// OnStart runs once when the task deploys.
	OnStart(ctx Context)
	// OnSeedMessage handles one report from a seed; v is read-only
	// (Harvester.Deliver).
	OnSeedMessage(ctx Context, from soil.SeedRef, v core.Value)
}

// FuncLogic adapts a message handler to Logic; Message may be nil.
// OnStart does nothing.
type FuncLogic struct {
	Message func(ctx Context, from soil.SeedRef, v core.Value)
}

// OnStart implements Logic.
func (FuncLogic) OnStart(Context) {}

// OnSeedMessage implements Logic.
func (f FuncLogic) OnSeedMessage(ctx Context, from soil.SeedRef, v core.Value) {
	if f.Message != nil {
		f.Message(ctx, from, v)
	}
}

// Harvester hosts one task's Logic and counts the reports it receives.
type Harvester struct {
	logic   Logic
	ctx     Context
	reports uint64
}

// New creates a harvester for a task. logic may be nil (collect-only).
func New(logic Logic) *Harvester {
	return &Harvester{logic: logic}
}

// Bind attaches the seeder-provided context and runs OnStart.
func (h *Harvester) Bind(ctx Context) {
	h.ctx = ctx
	if h.logic != nil {
		h.logic.OnStart(ctx)
	}
}

// Deliver counts a seed report and hands it to the logic. The value is
// read-only: a list of scalars and strings is the sending seed's own
// (a list no seed writes, so sent uncopied), and the same value may be
// delivered to other harvesters.
func (h *Harvester) Deliver(from soil.SeedRef, v core.Value) {
	h.reports++
	if h.logic != nil && h.ctx != nil {
		h.logic.OnSeedMessage(h.ctx, from, v)
	}
}

// Reports returns how many reports the harvester has received.
func (h *Harvester) Reports() uint64 { return h.reports }
