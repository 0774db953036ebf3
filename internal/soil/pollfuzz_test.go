package soil

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/dataplane"
	"farm/internal/netmodel"
)

// A poll group hands each subscriber every k-th completion, k its
// interval over the group's period, with deltas against the completion
// it was last handed, and recycles the batches no subscriber needs. These
// tests hold every poll result a handler sees, and every one it kept, to
// records built fresh from the counters, across subscribers joining and
// leaving at their own intervals, grants that retune them, port-set
// changes and rule counters.

// observerSource reports each poll result it is handed. A keeping
// observer also keeps the result and its last record, in machine or
// state variables, and reports what it kept from its previous delivery
// before keeping this one's. Verbs: the interval in ms at a PCIe grant of
// 1, the subject, the record type, the machine declarations, the state
// declarations, the keeping statements.
const observerSource = `
machine Obs {
  place all;
  poll p = Poll { .ival = %d / res().PCIe, .what = %s };
  long n;
  %s
  state s {
    %s
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (p as recs) do {
      send recs to harvester;
      %s
      n = n + 1;
    }
  }
}
`

const (
	keepNone = iota
	keepEnv
	keepState
	keepModes
)

// observerIvals are the intervals, in ms at a PCIe grant of 1, an
// observer can be written with; the first is the default. observerPCIe
// are the grants a Realloc can retune one to. Both are exact in binary,
// so the oracle's intervals are the soil's to the nanosecond.
var (
	observerIvals = [...]int{10, 20, 40, 100}
	observerPCIe  = [...]float64{1, 0.5, 2, 0.25}
)

// observerProgram prepares the observer of a subject (port or rule
// counters) polling every ival ms at a PCIe grant of 1 and keeping its
// poll results as keep says.
func observerProgram(tb testing.TB, rule bool, keep, ival int) *Prepared {
	tb.Helper()
	what, rec, field := "port ANY", "PortStats", "dTxBytes"
	if rule {
		what, rec, field = "dstPort 80", "RuleStats", "dBytes"
	}
	decls := fmt.Sprintf("list last; %s row;", rec)
	body := `if (n > 0) then { send last to harvester; send row to harvester; }
      last = recs;
      row = list_get(recs, list_len(recs) - 1);`
	var env, st string
	switch keep {
	case keepNone: // a record in a local, gone with the run
		body = fmt.Sprintf("%s r = list_get(recs, 0); n = n + r.%s - r.%s;", rec, field, field)
	case keepEnv:
		env = decls
	case keepState:
		st = decls
	}
	src := fmt.Sprintf(observerSource, ival, what, env, st, body)
	prog, err := almanac.Parse(src)
	if err != nil {
		tb.Fatalf("parse: %v\n%s", err, src)
	}
	cm, err := almanac.CompileMachine(prog, "Obs")
	if err != nil {
		tb.Fatalf("compile: %v\n%s", err, src)
	}
	return mustPrepare(tb, cm, nil)
}

// observerPrograms is every observer program, by rule subject, keep mode
// and index in observerIvals.
type observerPrograms [2][keepModes][len(observerIvals)]*Prepared

// completion is what the oracle remembers of one completion of a
// subject's group: its number in the group (0: none, counters zero) and
// the counters it read.
type completion struct {
	n     uint64
	ports []int
	stats []dataplane.PortStats
	rule  dataplane.RuleStats
}

// observer is one deployed observer and what the oracle expects of it.
type observer struct {
	ref  SeedRef
	rule bool
	keep int
	// written is its interval at a PCIe grant of 1, ival the one at its
	// current grant.
	written, ival time.Duration
	// base is the completion it was last handed, or joined at; handed is
	// set by its first delivery. kept and keptRow are the text of the
	// poll result it kept last and of its last record.
	base          completion
	handed        bool
	kept, keptRow string
	want          []string // reports expected since the last check
}

// pollHarness drives a soil's poll groups with completions it makes up
// (calling the group's completion callbacks directly, as the driver
// would) and checks every report against records built from the
// counters.
type pollHarness struct {
	tb      testing.TB
	s       *Soil
	progs   *observerPrograms
	obs     []*observer         // deployed, in join order
	latest  [2]completion       // each subject group's latest completion
	reports map[string][]string // by seed ID, since the last check
	joins   int
	// keptChecks counts reports of kept results, rewrites the completions
	// whose batch was their base's, rewritten in place.
	keptChecks, rewrites int
}

func newPollHarness(tb testing.TB, progs *observerPrograms) *pollHarness {
	fab, _, leaf := oneLeafFabric(tb, 2)
	h := &pollHarness{tb: tb, s: New(fab, leaf, DefaultOptions()), progs: progs, reports: map[string][]string{}}
	h.s.SetSendFunc(func(from SeedRef, _ core.SendDest, v core.Value) {
		h.reports[from.ID()] = append(h.reports[from.ID()], core.FormatValue(v))
	})
	return h
}

func allObserverPrograms(tb testing.TB) *observerPrograms {
	var progs observerPrograms
	for r := range progs {
		for k := range progs[r] {
			for i, ival := range observerIvals {
				progs[r][k][i] = observerProgram(tb, r == 1, k, ival)
			}
		}
	}
	return &progs
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func observerGrant(pcie float64) netmodel.Vector {
	return netmodel.Vector{netmodel.ResVCPU: 0.01, netmodel.ResRAM: 1, netmodel.ResPoll: 100, netmodel.ResPCIe: pcie}
}

// join deploys an observer of the subject polling every
// observerIvals[ival] ms. It starts from the group's latest completion.
func (h *pollHarness) join(rule bool, keep, ival int) {
	h.tb.Helper()
	ref := SeedRef{Task: fmt.Sprintf("t%d", h.joins), Machine: "Obs", Switch: h.s.Name()}
	h.joins++
	if err := h.s.DeployCompiled(ref, ref.ID(), h.progs[b2i(rule)][keep][ival], observerGrant(1)); err != nil {
		h.tb.Fatal(err)
	}
	o := &observer{
		ref: ref, rule: rule, keep: keep,
		written: time.Duration(observerIvals[ival]) * time.Millisecond,
		base:    h.latest[b2i(rule)],
	}
	o.ival = o.written
	h.obs = append(h.obs, o)
}

func (h *pollHarness) leave(i int) {
	h.tb.Helper()
	o := h.obs[i]
	if err := h.s.Remove(o.ref.ID()); err != nil {
		h.tb.Fatal(err)
	}
	h.obs = slices.Delete(h.obs, i, i+1)
	for _, x := range h.obs {
		if x.rule == o.rule {
			return
		}
	}
	h.latest[b2i(o.rule)] = completion{} // the group went with its last subscriber
}

// realloc retunes observer i to the grant pcie: its interval scales by
// 1/pcie from the one it was written with.
func (h *pollHarness) realloc(i int, pcie float64) {
	h.tb.Helper()
	o := h.obs[i]
	if err := h.s.Realloc(o.ref.ID(), observerGrant(pcie)); err != nil {
		h.tb.Fatal(err)
	}
	o.ival = time.Duration(float64(o.written) / pcie)
}

// group returns the soil's poll group of a subject, nil if it has none.
func (h *pollHarness) group(rule bool) *pollGroup {
	for _, o := range h.obs {
		if o.rule == rule {
			return h.s.seeds[o.ref.ID()].subs[0].group
		}
	}
	return nil
}

// latestBatch is the batch of a group's latest completion, nil before
// its first.
func latestBatch(g *pollGroup) *core.Batch {
	if b := g.base(g.n); b != nil {
		return b.batch
	}
	return nil
}

func portRecord(port int, cur, was dataplane.PortStats) string {
	return core.FormatValue(core.StructVal{
		L: core.LayoutOf("PortStats", []string{"port", "rxBytes", "txBytes", "rxPkts", "txPkts", "dRxBytes", "dTxBytes", "dRxPkts", "dTxPkts"}),
		V: []core.Value{
			int64(port),
			int64(cur.RxBytes), int64(cur.TxBytes), int64(cur.RxPackets), int64(cur.TxPackets),
			int64(cur.RxBytes) - int64(was.RxBytes), int64(cur.TxBytes) - int64(was.TxBytes),
			int64(cur.RxPackets) - int64(was.RxPackets), int64(cur.TxPackets) - int64(was.TxPackets),
		},
	})
}

func ruleRecord(cur, was dataplane.RuleStats) string {
	return core.FormatValue(core.StructVal{
		L: core.LayoutOf("RuleStats", []string{"packets", "bytes", "dPackets", "dBytes"}),
		V: []core.Value{
			int64(cur.Packets), int64(cur.Bytes),
			int64(cur.Packets) - int64(was.Packets), int64(cur.Bytes) - int64(was.Bytes),
		},
	})
}

// records renders completion c of a subject against base, as its
// subscriber's handler should see it.
func records(rule bool, c, base completion) []string {
	if rule {
		return []string{ruleRecord(c.rule, base.rule)}
	}
	var recs []string
	for i, p := range c.ports {
		var was dataplane.PortStats
		if i < len(base.ports) && base.ports[i] == p {
			was = base.stats[i]
		}
		recs = append(recs, portRecord(p, c.stats[i], was))
	}
	return recs
}

// expect numbers completion c of a subject and records what each of its
// subscribers due at it should report: a subscriber is due at every k-th
// completion, k its interval over the shortest of the group's.
func (h *pollHarness) expect(rule bool, c completion) {
	c.n = h.latest[b2i(rule)].n + 1
	h.latest[b2i(rule)] = c
	var period time.Duration
	for _, o := range h.obs {
		if o.rule == rule && (period == 0 || o.ival < period) {
			period = o.ival
		}
	}
	text := func(rs []string) string { return "[" + strings.Join(rs, ", ") + "]" }
	for _, o := range h.obs {
		if o.rule != rule || c.n%uint64(max(1, o.ival/period)) != 0 {
			continue
		}
		rs := records(rule, c, o.base)
		o.want = append(o.want, text(rs))
		if o.handed && o.keep != keepNone {
			o.want = append(o.want, o.kept, o.keptRow)
			h.keptChecks++
		}
		o.base, o.handed, o.kept, o.keptRow = c, true, text(rs), rs[len(rs)-1]
	}
}

// completePorts delivers a port-statistics completion of ports.
func (h *pollHarness) completePorts(ports []int, stats []dataplane.PortStats) {
	g := h.group(false)
	if g == nil {
		return
	}
	h.expect(false, completion{ports: slices.Clone(ports), stats: slices.Clone(stats)})
	before := latestBatch(g)
	g.deliverPorts(ports, stats)
	if before != nil && latestBatch(g) == before {
		h.rewrites++
	}
	h.check()
}

// completeRule delivers a rule-counter completion; !ok is a rule the
// ASIC does not have (yet), which delivers nothing and is no completion.
func (h *pollHarness) completeRule(st dataplane.RuleStats, ok bool) {
	g := h.group(true)
	if g == nil {
		return
	}
	if ok {
		h.expect(true, completion{rule: st})
	}
	before := latestBatch(g)
	g.deliverRule(st, ok)
	if ok && before != nil && latestBatch(g) == before {
		h.rewrites++
	}
	h.check()
}

// check compares every observer's reports since the last check with the
// oracle's.
func (h *pollHarness) check() {
	h.tb.Helper()
	for _, o := range h.obs {
		got := h.reports[o.ref.ID()]
		if !slices.Equal(got, o.want) {
			h.tb.Fatalf("%s (rule %v, keep %d, ival %v) reported\n%q\nwant\n%q", o.ref.ID(), o.rule, o.keep, o.ival, got, o.want)
		}
		o.want = o.want[:0]
	}
	clear(h.reports)
}

// portCounters is the cumulative counters of ports 1..8, advanced by the
// test between completions.
type portCounters [9]dataplane.PortStats

func (c *portCounters) advance(port int, n uint64) {
	c[port].RxPackets += n % 7
	c[port].RxBytes += 100 * n
	c[port].TxPackets += n % 5
	c[port].TxBytes += 1000*n + uint64(port)
}

func (c *portCounters) read(ports []int) []dataplane.PortStats {
	out := make([]dataplane.PortStats, len(ports))
	for i, p := range ports {
		out[i] = c[p]
	}
	return out
}

// TestKeptPollResultsReadTheirCompletion: a seed that keeps a poll result
// and one of its records, in machine or state variables, reads on later
// completions the counters of the completion they came from, while its
// co-subscribers read each new completion — through a late join, the
// removal of subscribers, port-set changes and rule counters. A group
// nobody keeps anything of rewrites its batch in place.
func TestKeptPollResultsReadTheirCompletion(t *testing.T) {
	h := newPollHarness(t, allObserverPrograms(t))
	var c portCounters
	all := []int{1, 2, 3, 4, 5, 6}
	complete := func(ports []int) {
		for _, p := range ports {
			c.advance(p, uint64(p+len(ports)))
		}
		h.completePorts(ports, c.read(ports))
	}
	var rule dataplane.RuleStats
	completeRule := func(ok bool) {
		rule.Packets += 3
		rule.Bytes += 300
		h.completeRule(rule, ok)
	}

	// Nobody keeps anything: one batch, rewritten.
	h.join(false, keepNone, 0)
	h.join(true, keepNone, 0)
	for i := 0; i < 3; i++ {
		complete(all)
		completeRule(true)
	}
	if h.rewrites != 4 {
		t.Fatalf("%d of 4 completions after the first rewrote their group's batch", h.rewrites)
	}
	// Keepers in state variables, then in machine variables, on both
	// subjects, and late joiners.
	for _, keep := range []int{keepState, keepEnv} {
		h.join(false, keep, 0)
		h.join(true, keep, 0)
		for i := 0; i < 3; i++ {
			complete(all)
			completeRule(true)
		}
	}
	h.join(false, keepEnv, 0)
	h.join(true, keepState, 0)
	complete(all)
	completeRule(false)
	completeRule(true)
	// Subscribers leave: the first keeper, then the non-keeper.
	h.leave(2)
	complete(all)
	h.leave(0)
	complete(all)
	completeRule(true)
	// Port-set changes: fewer ports, the same number of other ports, the
	// same ports in another order, then back.
	for _, ports := range [][]int{{1, 2, 3}, {4, 5, 6}, {6, 5, 4}, {7, 8, 1, 2, 3, 4}, all, all} {
		complete(ports)
	}
	// Everyone who kept goes; the group that is left rewrites again.
	rewrites := h.rewrites
	for len(h.obs) > 0 {
		h.leave(len(h.obs) - 1)
	}
	h.join(false, keepNone, 0)
	for i := 0; i < 3; i++ {
		complete(all)
	}
	if h.rewrites-rewrites != 2 {
		t.Fatalf("%d of 2 completions rewrote the re-created group's batch", h.rewrites-rewrites)
	}
	if h.keptChecks < 25 {
		t.Fatalf("only %d kept results checked", h.keptChecks)
	}
}

// FuzzPollDelivery runs arbitrary sequences of port and rule completions
// (any port set, rules the ASIC lacks), subscribers joining and leaving,
// each at its own interval, late joins onto a group that has completed,
// grants that retune a subscriber's interval, and handlers that keep
// their poll results or drop them. Every subscriber must be handed
// exactly the completions its cadence is due, and every result it is
// handed or kept must read as records built fresh from the counters of
// the completion it came from, against the one it was handed before.
func FuzzPollDelivery(f *testing.F) {
	f.Add([]byte{3, 0, 3, 5, 0, 9, 1, 7, 3, 1, 3, 11, 0, 4, 2, 2, 9, 0, 1, 7, 4, 0, 1, 3})
	f.Add([]byte{3, 1, 3, 2, 3, 4, 0, 0, 5, 2, 2, 1, 0, 3, 2, 0, 1, 3, 4, 0, 4, 1, 0, 7, 0, 2, 5})
	f.Add([]byte{3, 2, 3, 4, 3, 1, 3, 5, 5, 1, 5, 2, 4, 1, 5, 3, 1, 0, 4, 0, 5, 6, 0, 1, 5, 9, 4, 2, 5, 7})
	// Subscribers at 10, 20 and 100 ms on one group, retuned and joined
	// late while it runs.
	f.Add([]byte{6, 0, 0, 6, 2, 1, 6, 4, 3, 5, 5, 5, 5, 5, 7, 1, 2, 5, 5, 8, 1, 5, 5, 5, 7, 0, 1, 5, 5, 5, 5, 4, 0, 5, 5, 5})
	f.Add([]byte{6, 1, 0, 6, 3, 2, 2, 5, 2, 5, 8, 3, 2, 7, 2, 1, 7, 0, 3, 2, 5, 2, 5, 2, 5, 2, 5, 4, 1, 2, 5, 2, 5})
	// Subscribers that keep nothing, so nothing hides a batch written
	// over while a slower subscriber still holds it as its base: at 20
	// and 10 ms with a second 10 ms one joining; and at 10 ms with 40
	// and 20 ms ones joining late, two classes needing a spare batch in
	// one completion.
	f.Add([]byte{6, 0, 1, 3, 0, 5, 5, 5, 3, 0, 5})
	f.Add([]byte{6, 0, 0, 8, 0, 2, 5, 8, 0, 1, 3, 0, 5})
	progs := allObserverPrograms(f)
	portSets := [][]int{{1, 2, 3, 4, 5, 6}, {1, 2, 3}, {4, 5, 6}, {6, 5, 4, 3, 2, 1}, {7, 8, 1, 2, 3, 4}, {2}}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newPollHarness(t, progs)
		var c portCounters
		var rule dataplane.RuleStats
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		steady := func() {
			ports := portSets[0]
			for _, p := range ports {
				c.advance(p, 1)
			}
			h.completePorts(ports, c.read(ports))
		}
		for ops := 0; len(data) > 0 && ops < 64; ops++ {
			switch next() % 9 {
			case 0, 1: // a port completion of a port set
				ports := portSets[next()%len(portSets)]
				for _, p := range ports {
					c.advance(p, uint64(next()))
				}
				h.completePorts(ports, c.read(ports))
			case 2: // a rule completion, or a rule the ASIC lacks
				n := next()
				rule.Packets += uint64(n % 13)
				rule.Bytes += uint64(n) * 64
				h.completeRule(rule, n%5 != 0)
			case 3: // a subscriber joins at the default interval
				if b := next(); len(h.obs) < 8 {
					h.join(b%2 == 1, b/2%keepModes, 0)
				}
			case 4: // a subscriber leaves
				if b := next(); len(h.obs) > 0 {
					h.leave(b % len(h.obs))
				}
			case 5: // a steady completion of every port
				steady()
			case 6: // a subscriber joins at an interval of its own
				if b, iv := next(), next(); len(h.obs) < 8 {
					h.join(b%2 == 1, b/2%keepModes, iv%len(observerIvals))
				}
			case 7: // a grant retunes a subscriber's interval
				if b, g := next(), next(); len(h.obs) > 0 {
					h.realloc(b%len(h.obs), observerPCIe[g%len(observerPCIe)])
				}
			case 8: // a late join: between two completions of the port group
				b, iv := next(), next()
				steady()
				if len(h.obs) < 8 {
					h.join(false, b%keepModes, iv%len(observerIvals))
				}
				steady()
			}
		}
	})
}
