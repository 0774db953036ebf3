package soil

import (
	"fmt"
	"slices"
	"testing"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/dataplane"
	"farm/internal/netmodel"
)

// A poll group rewrites its one batch for each completion unless a
// handler kept it. These tests hold every poll result a handler sees, and
// every one it kept, to records built fresh from the counters, across
// subscribers joining and leaving, port-set changes and rule counters.

// observerSource reports each poll result it is handed. A keeping
// observer also keeps the result and its last record, in machine or
// state variables, and reports what it kept from its previous completion
// before keeping this one's. Verbs: the subject, the record type, the
// machine declarations, the state declarations, the keeping statements.
const observerSource = `
machine Obs {
  place all;
  poll p = Poll { .ival = 10, .what = %s };
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

// observerProgram prepares the observer of a subject (port or rule
// counters) keeping its poll results as keep says.
func observerProgram(tb testing.TB, rule bool, keep int) *Prepared {
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
	src := fmt.Sprintf(observerSource, what, env, st, body)
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

// observer is one deployed observer and what the oracle expects of it.
type observer struct {
	ref  SeedRef
	rule bool
	keep int
	// seen is set by its first delivery; kept and keptRow are the text of
	// the poll result it kept last and of its last record.
	seen          bool
	kept, keptRow string
	want          []string // reports expected since the last check
}

// oracleGroup is what the oracle remembers of a subject's poll group:
// the ports and counters of its previous completion.
type oracleGroup struct {
	ports []int
	stats []dataplane.PortStats
	rule  dataplane.RuleStats
}

// pollHarness drives a soil's poll groups with completions it makes up
// (calling the group's completion callbacks directly, as the driver
// would) and checks every report against records built from the
// counters.
type pollHarness struct {
	tb      testing.TB
	s       *Soil
	progs   [2][keepModes]*Prepared // by rule subject, keep mode
	obs     []*observer             // deployed, in join order
	groups  [2]oracleGroup          // by rule subject
	reports map[string][]string     // by seed ID, since the last check
	joins   int
	// keptChecks counts reports of kept results, rewrites the completions
	// that reused their group's batch.
	keptChecks, rewrites int
}

func newPollHarness(tb testing.TB, progs [2][keepModes]*Prepared) *pollHarness {
	fab, _, leaf := oneLeafFabric(tb, 2)
	h := &pollHarness{tb: tb, s: New(fab, leaf, DefaultOptions()), progs: progs, reports: map[string][]string{}}
	h.s.SetSendFunc(func(from SeedRef, _ core.SendDest, v core.Value) {
		h.reports[from.ID()] = append(h.reports[from.ID()], core.FormatValue(v))
	})
	return h
}

func allObserverPrograms(tb testing.TB) (progs [2][keepModes]*Prepared) {
	for r := range progs {
		for k := range progs[r] {
			progs[r][k] = observerProgram(tb, r == 1, k)
		}
	}
	return progs
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (h *pollHarness) join(rule bool, keep int) {
	h.tb.Helper()
	ref := SeedRef{Task: fmt.Sprintf("t%d", h.joins), Machine: "Obs", Switch: h.s.Name()}
	h.joins++
	alloc := netmodel.Vector{netmodel.ResVCPU: 0.01, netmodel.ResRAM: 1, netmodel.ResPoll: 100}
	if err := h.s.DeployCompiled(ref, ref.ID(), h.progs[b2i(rule)][keep], alloc); err != nil {
		h.tb.Fatal(err)
	}
	h.obs = append(h.obs, &observer{ref: ref, rule: rule, keep: keep})
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
	h.groups[b2i(o.rule)] = oracleGroup{} // the group went with its last subscriber
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

// expect records what each subscriber of a subject should report for a
// completion whose records, against the group's previous completion and
// against zero, are recs and fresh.
func (h *pollHarness) expect(rule bool, recs, fresh []string) {
	text := func(rs []string) string {
		out := "["
		for i, r := range rs {
			if i > 0 {
				out += ", "
			}
			out += r
		}
		return out + "]"
	}
	for _, o := range h.obs {
		if o.rule != rule {
			continue
		}
		rs := recs
		if !o.seen {
			rs = fresh
		}
		o.want = append(o.want, text(rs))
		if o.seen && o.keep != keepNone {
			o.want = append(o.want, o.kept, o.keptRow)
			h.keptChecks++
		}
		o.seen, o.kept, o.keptRow = true, text(rs), rs[len(rs)-1]
	}
}

// completePorts delivers a port-statistics completion of ports.
func (h *pollHarness) completePorts(ports []int, stats []dataplane.PortStats) {
	g := h.group(false)
	if g == nil {
		return
	}
	og := &h.groups[0]
	var recs, fresh []string
	for i, p := range ports {
		var was dataplane.PortStats
		if i < len(og.ports) && og.ports[i] == p {
			was = og.stats[i]
		}
		recs = append(recs, portRecord(p, stats[i], was))
		fresh = append(fresh, portRecord(p, stats[i], dataplane.PortStats{}))
	}
	h.expect(false, recs, fresh)
	before := g.batch
	g.deliverPorts(ports, stats)
	if before != nil && g.batch == before {
		h.rewrites++
	}
	og.ports, og.stats = slices.Clone(ports), slices.Clone(stats)
	h.check()
}

// completeRule delivers a rule-counter completion; !ok is a rule the
// ASIC does not have (yet), which delivers nothing.
func (h *pollHarness) completeRule(st dataplane.RuleStats, ok bool) {
	g := h.group(true)
	if g == nil {
		return
	}
	og := &h.groups[1]
	if ok {
		h.expect(true, []string{ruleRecord(st, og.rule)}, []string{ruleRecord(st, dataplane.RuleStats{})})
	}
	before := g.batch
	g.deliverRule(st, ok)
	if ok {
		if before != nil && g.batch == before {
			h.rewrites++
		}
		og.rule = st
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
			h.tb.Fatalf("%s (rule %v, keep %d) reported\n%q\nwant\n%q", o.ref.ID(), o.rule, o.keep, got, o.want)
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
	h.join(false, keepNone)
	h.join(true, keepNone)
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
		h.join(false, keep)
		h.join(true, keep)
		for i := 0; i < 3; i++ {
			complete(all)
			completeRule(true)
		}
	}
	h.join(false, keepEnv)
	h.join(true, keepState)
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
	h.join(false, keepNone)
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
// and handlers that keep their poll results or drop them. Every result a
// handler is handed and every one it kept must read as records built
// fresh from the counters of the completion it came from.
func FuzzPollDelivery(f *testing.F) {
	f.Add([]byte{3, 0, 3, 5, 0, 9, 1, 7, 3, 1, 3, 11, 0, 4, 2, 2, 9, 0, 1, 7, 4, 0, 1, 3})
	f.Add([]byte{3, 1, 3, 2, 3, 4, 0, 0, 5, 2, 2, 1, 0, 3, 2, 0, 1, 3, 4, 0, 4, 1, 0, 7, 0, 2, 5})
	f.Add([]byte{3, 2, 3, 4, 3, 1, 3, 5, 5, 1, 5, 2, 4, 1, 5, 3, 1, 0, 4, 0, 5, 6, 0, 1, 5, 9, 4, 2, 5, 7})
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
		for ops := 0; len(data) > 0 && ops < 64; ops++ {
			switch next() % 6 {
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
			case 3: // a subscriber joins
				if b := next(); len(h.obs) < 8 {
					h.join(b%2 == 1, b/2%keepModes)
				}
			case 4: // a subscriber leaves
				if b := next(); len(h.obs) > 0 {
					h.leave(b % len(h.obs))
				}
			case 5: // a steady completion of every port
				ports := portSets[0]
				for _, p := range ports {
					c.advance(p, 1)
				}
				h.completePorts(ports, c.read(ports))
			}
		}
	})
}
