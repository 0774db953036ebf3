package harvest

import (
	"testing"
	"time"

	"farm/internal/core"
	"farm/internal/soil"
)

type fakeCtx struct {
	now  time.Duration
	sent []struct {
		machine, sw string
		v           core.Value
	}
	logs []string
}

func (c *fakeCtx) SendToSeeds(machine, switchName string, v core.Value) {
	c.sent = append(c.sent, struct {
		machine, sw string
		v           core.Value
	}{machine, switchName, v})
}
func (c *fakeCtx) Now() time.Duration             { return c.now }
func (c *fakeCtx) Log(format string, args ...any) { c.logs = append(c.logs, format) }

func TestFuncLogicDispatch(t *testing.T) {
	var got core.Value
	logic := FuncLogic{
		Message: func(ctx Context, from soil.SeedRef, v core.Value) {
			got = v
			ctx.SendToSeeds("HH", "", int64(1))
		},
	}
	ctx := &fakeCtx{}
	h := New(logic)
	h.Bind(ctx)
	h.Deliver(soil.SeedRef{Task: "t", Machine: "HH", Switch: "leaf0"}, int64(42))
	if got != int64(42) {
		t.Fatalf("got = %v", got)
	}
	if len(ctx.sent) != 1 || ctx.sent[0].machine != "HH" {
		t.Fatalf("sent = %+v", ctx.sent)
	}
}

// report is one seed report as a recorder saw it.
type report struct {
	at   time.Duration
	from soil.SeedRef
	v    core.Value
}

// recorder is a Logic that keeps every report it is handed.
type recorder struct{ reports []report }

func (*recorder) OnStart(Context) {}

func (r *recorder) OnSeedMessage(ctx Context, from soil.SeedRef, v core.Value) {
	r.reports = append(r.reports, report{ctx.Now(), from, v})
}

func TestNilLogicCollectsOnly(t *testing.T) {
	h := New(nil)
	h.Bind(&fakeCtx{})
	h.Deliver(soil.SeedRef{Switch: "leaf0"}, "a")
	h.Deliver(soil.SeedRef{Switch: "leaf1"}, "b")
	if n := h.Reports(); n != 2 {
		t.Fatalf("reports = %d, want 2", n)
	}
}

func TestLogicSeesEachReport(t *testing.T) {
	rec := &recorder{}
	h := New(rec)
	h.Bind(&fakeCtx{now: 5 * time.Millisecond})
	h.Deliver(soil.SeedRef{Switch: "leaf0"}, "a")
	h.Deliver(soil.SeedRef{Switch: "leaf1"}, "b")
	if h.Reports() != 2 || len(rec.reports) != 2 {
		t.Fatalf("reports = %d, logic saw %d, want 2", h.Reports(), len(rec.reports))
	}
	if r := rec.reports[1]; r.v != "b" || r.from.Switch != "leaf1" || r.at != 5*time.Millisecond {
		t.Fatalf("last = %+v", r)
	}
}

func TestLastReportEmpty(t *testing.T) {
	h := New(nil)
	if n := h.Reports(); n != 0 {
		t.Fatalf("a fresh harvester counts %d reports, want none", n)
	}
}

func TestDeliverBeforeBind(t *testing.T) {
	// Delivery before Bind must not panic; it is counted, and the logic,
	// which has no context yet, is not called.
	rec := &recorder{}
	h := New(rec)
	h.Deliver(soil.SeedRef{}, "x")
	if h.Reports() != 1 || len(rec.reports) != 0 {
		t.Fatalf("reports = %d, logic saw %+v", h.Reports(), rec.reports)
	}
}
