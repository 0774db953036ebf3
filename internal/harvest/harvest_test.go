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
	h := New("t", logic)
	h.Bind(ctx)
	h.Deliver(soil.SeedRef{Task: "t", Machine: "HH", Switch: "leaf0"}, int64(42))
	if got != int64(42) {
		t.Fatalf("got = %v", got)
	}
	if len(ctx.sent) != 1 || ctx.sent[0].machine != "HH" {
		t.Fatalf("sent = %+v", ctx.sent)
	}
}

func TestNilLogicCollectsOnly(t *testing.T) {
	h := New("t", nil)
	h.Bind(&fakeCtx{now: 5 * time.Millisecond})
	h.Deliver(soil.SeedRef{Switch: "leaf0"}, "a")
	h.Deliver(soil.SeedRef{Switch: "leaf1"}, "b")
	if len(h.History()) != 2 {
		t.Fatalf("history = %d", len(h.History()))
	}
	if rec := h.History()[1]; rec.Val != "b" || rec.From.Switch != "leaf1" || rec.At != 5*time.Millisecond {
		t.Fatalf("last = %+v", rec)
	}
}

func TestHistoryBounded(t *testing.T) {
	h := New("t", nil)
	h.Bind(&fakeCtx{})
	const n = historyLimit + 10
	for i := 0; i < n; i++ {
		h.Deliver(soil.SeedRef{}, int64(i))
	}
	hist := h.History()
	if len(hist) != historyLimit {
		t.Fatalf("history = %d, want %d", len(hist), historyLimit)
	}
	if hist[0].Val != int64(n-historyLimit) || hist[historyLimit-1].Val != int64(n-1) {
		t.Fatalf("history kept wrong records: %v %v", hist[0].Val, hist[historyLimit-1].Val)
	}
}

func TestLastReportEmpty(t *testing.T) {
	h := New("t", nil)
	if n := len(h.History()); n != 0 {
		t.Fatalf("a fresh harvester holds %d reports, want none", n)
	}
}

func TestDeliverBeforeBind(t *testing.T) {
	// Delivery before Bind must not panic; records at time zero.
	h := New("t", FuncLogic{})
	h.Deliver(soil.SeedRef{}, "x")
	if len(h.History()) != 1 || h.History()[0].At != 0 {
		t.Fatalf("history = %+v", h.History())
	}
}
