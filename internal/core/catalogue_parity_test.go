package core_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/dataplane"
	"farm/internal/netmodel"
	"farm/internal/tasks"
)

// The whole task catalogue must (a) lower to register code and deploy
// on the register VM, and (b) stay in observable lockstep with the AST
// interpreter (the semantic reference, core.NewSeed, which only this
// package's tests can build) under a random storm of triggers,
// messages, reallocs, and snapshots.

// parityTaskHost records every externally observable host effect as a
// deterministic trace line.
type parityTaskHost struct {
	now   time.Duration
	grant netmodel.Vector
	tcam  *dataplane.TCAM
	trace []string
}

func newParityTaskHost() *parityTaskHost {
	return &parityTaskHost{
		grant: netmodel.Vector{netmodel.ResVCPU: 2, netmodel.ResRAM: 1024, netmodel.ResPCIe: 1},
		tcam:  dataplane.NewTCAM(128),
	}
}

func (h *parityTaskHost) Now() time.Duration          { return h.now }
func (h *parityTaskHost) Resources() *netmodel.Vector { return &h.grant }
func (h *parityTaskHost) AddTCAMRule(r dataplane.Rule) error {
	h.trace = append(h.trace, fmt.Sprintf("tcam+ %+v", r))
	return h.tcam.AddRule(r)
}
func (h *parityTaskHost) RemoveTCAMRule(f dataplane.Filter) bool {
	h.trace = append(h.trace, fmt.Sprintf("tcam- %+v", f))
	return h.tcam.RemoveRule(f)
}
func (h *parityTaskHost) GetTCAMRule(f dataplane.Filter) (dataplane.Rule, bool) {
	return h.tcam.GetRule(f)
}
func (h *parityTaskHost) Send(to core.SendDest, v core.Value) {
	h.trace = append(h.trace, fmt.Sprintf("send %+v %s", to, core.FormatValue(v)))
}
func (h *parityTaskHost) SetTriggerInterval(trigger string, ms float64) {
	h.trace = append(h.trace, fmt.Sprintf("ival %s %g", trigger, ms))
}
func (h *parityTaskHost) Exec(cmd string, arg core.Value) (core.Value, error) {
	h.trace = append(h.trace, fmt.Sprintf("exec %s %s", cmd, core.FormatValue(arg)))
	return int64(1), nil
}
func (h *parityTaskHost) Log(format string, args ...any) {
	h.trace = append(h.trace, "log "+fmt.Sprintf(format, args...))
}

func snapFingerprint(s core.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "state=%s\n", s.State)
	envKeys := make([]string, 0, len(s.Env))
	for k := range s.Env {
		envKeys = append(envKeys, k)
	}
	sort.Strings(envKeys)
	for _, k := range envKeys {
		fmt.Fprintf(&b, "env %s=%s\n", k, core.FormatValue(s.Env[k]))
	}
	stKeys := make([]string, 0, len(s.StateVars))
	for k := range s.StateVars {
		stKeys = append(stKeys, k)
	}
	sort.Strings(stKeys)
	for _, st := range stKeys {
		vks := make([]string, 0, len(s.StateVars[st]))
		for k := range s.StateVars[st] {
			vks = append(vks, k)
		}
		sort.Strings(vks)
		for _, k := range vks {
			fmt.Fprintf(&b, "sv %s.%s=%s\n", st, k, core.FormatValue(s.StateVars[st][k]))
		}
	}
	return b.String()
}

func errStr(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// taskPortStats is one poll completion of n ports as the soil delivers
// it: a batch with cumulative counters and deltas against a previous
// completion.
func taskPortStats(rng *rand.Rand, n int) *core.Batch {
	ports := make([]int, n)
	prev := make([]dataplane.PortStats, n)
	cur := make([]dataplane.PortStats, n)
	for i := range ports {
		ports[i] = i + 1
		prev[i] = dataplane.PortStats{
			RxPackets: uint64(rng.Intn(1 << 10)), RxBytes: uint64(rng.Intn(1 << 20)),
			TxPackets: uint64(rng.Intn(1 << 10)), TxBytes: uint64(rng.Intn(1 << 20)),
		}
		cur[i] = dataplane.PortStats{
			RxPackets: prev[i].RxPackets + uint64(rng.Intn(40)), RxBytes: prev[i].RxBytes + uint64(rng.Intn(4000)),
			TxPackets: prev[i].TxPackets + uint64(rng.Intn(40)), TxBytes: prev[i].TxBytes + uint64(rng.Intn(4000)),
		}
	}
	return core.NewPortStatsBatch(ports, cur, core.NewPortStatsBatch(ports, prev, nil, nil), nil)
}

// triggerArg is what HandleTrigger receives for payload v: the register
// VM gets a poll batch as the soil hands it over and a packet lent by
// pointer, the interpreter the list the batch materialises to and the
// packet boxed; anything else is cloned per executor.
func triggerArg(r core.Runner, v core.Value) core.Value {
	if _, interp := r.(*core.Seed); !interp {
		switch x := v.(type) {
		case *core.Batch:
			return x
		case core.PacketVal:
			return &x
		}
	}
	return core.CloneValue(v)
}

// taskPacket draws from the traffic the catalogue's probes watch: SYNs
// and ACKs, DNS responses, failed SSH logins, partial HTTP requests,
// over few enough addresses and ports that the tasks' thresholds trip.
func taskPacket(rng *rand.Rand) core.PacketVal {
	p := core.PacketVal{
		SrcIP:   netip.AddrFrom4([4]byte{10, 1, 0, byte(rng.Intn(4))}),
		DstIP:   netip.AddrFrom4([4]byte{10, 2, 0, byte(rng.Intn(2))}),
		SrcPort: uint16(1024 + rng.Intn(8)),
		DstPort: []uint16{22, 53, 80, 443}[rng.Intn(4)],
		Proto:   []dataplane.Proto{dataplane.ProtoTCP, dataplane.ProtoUDP}[rng.Intn(2)],
		Flags:   []dataplane.TCPFlags{dataplane.FlagSYN, dataplane.FlagACK, dataplane.FlagSYN | dataplane.FlagACK, dataplane.FlagFIN, 0}[rng.Intn(5)],
		Size:    64 + rng.Intn(1400),
	}
	switch rng.Intn(4) {
	case 0:
		p.App = dataplane.AppInfo{Kind: dataplane.AppDNS, DNSResponse: true, DNSQName: "q.example"}
	case 1:
		p.App = dataplane.AppInfo{Kind: dataplane.AppSSH, SSHAuthFail: true}
	case 2:
		p.App = dataplane.AppInfo{Kind: dataplane.AppHTTP, HTTPPartial: true}
	}
	return p
}

func taskPayload(rng *rand.Rand) core.Value {
	switch rng.Intn(8) {
	case 0:
		return taskPortStats(rng, 4+rng.Intn(8))
	case 6, 7:
		return taskPacket(rng)
	case 1:
		return int64(rng.Intn(5000))
	case 2:
		return rng.Float64() * 5000
	case 3:
		return core.StructOf("PortStats", map[string]core.Value{
			"port": int64(rng.Intn(16)), "dTxBytes": float64(rng.Intn(4000)),
		})
	case 4:
		return core.ActionVal(dataplane.ActDrop)
	default:
		return core.List{int64(rng.Intn(8)), int64(rng.Intn(8))}
	}
}

// TestCatalogueLowersToBytecode pins that every catalogued machine
// lowers, that core.Compile + NewRunner deploys it on the register VM (a
// machine that does not lower is rejected, so the catalogue must), and
// that its disassembly renders.
func TestCatalogueLowersToBytecode(t *testing.T) {
	for _, d := range tasks.All() {
		prog, err := almanac.Parse(d.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", d.Name, err)
		}
		for _, m := range prog.Machines {
			cm, err := almanac.CompileMachine(prog, m.Name)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", d.Name, m.Name, err)
			}
			lp, err := almanac.Lower(cm, core.BuiltinNames())
			if err != nil {
				t.Fatalf("%s/%s: lower: %v", d.Name, m.Name, err)
			}
			if lp.NumRegInstrs() == 0 {
				t.Fatalf("%s/%s: lowered to an empty program", d.Name, m.Name)
			}
			if dump := lp.Disassemble(); !strings.Contains(dump, "machine "+m.Name) {
				t.Fatalf("%s/%s: disassembly missing header:\n%s", d.Name, m.Name, dump)
			}
			if d.Machines != nil && !slices.Contains(d.Machines, m.Name) {
				continue // an inheritance base the task never deploys
			}
			cp, err := core.Compile(cm)
			if err != nil {
				t.Fatalf("%s/%s: Compile: %v", d.Name, m.Name, err)
			}
			r, err := cp.NewRunner(d.DefaultExternals[m.Name], newParityTaskHost())
			if err != nil {
				t.Fatalf("%s/%s: NewRunner: %v", d.Name, m.Name, err)
			}
			if _, interp := r.(*core.Seed); interp {
				t.Fatalf("%s/%s: NewRunner returned the AST interpreter, want the register VM", d.Name, m.Name)
			}
		}
	}
}

// TestCatalogueBackendParity drives every catalogued machine on the
// interpreter and the register VM through a deterministic random event
// storm and requires identical states, snapshots, host effects, action
// counts, and errors, including cross-restore in both directions.
func TestCatalogueBackendParity(t *testing.T) {
	for _, d := range tasks.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			prog, err := almanac.Parse(d.Source)
			if err != nil {
				t.Fatal(err)
			}
			machines := d.Machines
			if machines == nil {
				for _, m := range prog.Machines {
					machines = append(machines, m.Name)
				}
			}
			for _, mn := range machines {
				cm, err := almanac.CompileMachine(prog, mn)
				if err != nil {
					t.Fatalf("compile %s: %v", mn, err)
				}
				driveTaskParity(t, cm, d.DefaultExternals[mn])
			}
		})
	}
}

// parityBackends names the two executors, the interpreter (semantic
// reference, built with core.NewSeed) first, then the production runner
// (core.Compile + NewRunner).
var parityBackends = []string{"interp", "register"}

func driveTaskParity(t *testing.T, cm *almanac.CompiledMachine, ext map[string]core.Value) {
	t.Helper()
	n := len(parityBackends)
	hosts := make([]*parityTaskHost, n)
	runners := make([]core.Runner, n)
	errs := make([]error, n)
	for i := range parityBackends {
		hosts[i] = newParityTaskHost()
	}
	if ref, err := core.NewSeed(cm, ext, hosts[0]); err != nil {
		errs[0] = err
	} else {
		runners[0] = ref
	}
	if cp, err := core.Compile(cm); err != nil {
		errs[1] = err
	} else {
		runners[1], errs[1] = cp.NewRunner(ext, hosts[1])
	}
	for i := 1; i < n; i++ {
		if errStr(errs[0]) != errStr(errs[i]) {
			t.Fatalf("%s: construction divergence: interp %v vs %s %v", cm.Name, errs[0], parityBackends[i], errs[i])
		}
	}
	if errs[0] != nil {
		return
	}
	// every applies one step per executor and requires identical errors.
	every := func(step int, f func(r core.Runner) error) {
		t.Helper()
		e0 := f(runners[0])
		for i := 1; i < n; i++ {
			if e := f(runners[i]); errStr(e0) != errStr(e) {
				t.Fatalf("%s step %d: error divergence: interp %v vs %s %v", cm.Name, step, e0, parityBackends[i], e)
			}
		}
	}
	every(-1, func(r core.Runner) error { return r.Start() })

	triggers := make([]string, 0, len(cm.Triggers)+1)
	for _, tr := range cm.Triggers {
		triggers = append(triggers, tr.Name)
	}
	triggers = append(triggers, "noSuchTrigger")

	rng := rand.New(rand.NewSource(911))
	diff := func(step int) {
		t.Helper()
		f0, a0 := snapFingerprint(runners[0].Snapshot()), runners[0].TakeActionCount()
		for i := 1; i < n; i++ {
			name := parityBackends[i]
			if runners[0].State() != runners[i].State() {
				t.Fatalf("%s step %d: state interp %q vs %s %q", cm.Name, step, runners[0].State(), name, runners[i].State())
			}
			if a := runners[i].TakeActionCount(); a0 != a {
				t.Fatalf("%s step %d: action count interp %d vs %s %d", cm.Name, step, a0, name, a)
			}
			if f := snapFingerprint(runners[i].Snapshot()); f0 != f {
				t.Fatalf("%s step %d: snapshot divergence:\n--- interp\n%s--- %s\n%s", cm.Name, step, f0, name, f)
			}
			if len(hosts[0].trace) != len(hosts[i].trace) {
				t.Fatalf("%s step %d: trace length interp %d vs %s %d", cm.Name, step, len(hosts[0].trace), name, len(hosts[i].trace))
			}
			for j := range hosts[0].trace {
				if hosts[0].trace[j] != hosts[i].trace[j] {
					t.Fatalf("%s step %d: trace[%d] interp %q vs %s %q", cm.Name, step, j, hosts[0].trace[j], name, hosts[i].trace[j])
				}
			}
		}
	}

	const steps = 400
	for step := 0; step < steps; step++ {
		now := time.Duration(step) * 7 * time.Millisecond
		for _, h := range hosts {
			h.now = now
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			tr := triggers[rng.Intn(len(triggers))]
			v := taskPayload(rng)
			every(step, func(r core.Runner) error { return r.HandleTrigger(tr, triggerArg(r, v)) })
		case 6, 7:
			from := core.MsgSource{Harvester: true}
			if rng.Intn(2) == 0 {
				from = core.MsgSource{Machine: cm.Name}
			}
			v := taskPayload(rng)
			every(step, func(r core.Runner) error { return r.HandleRecv(from, core.CloneValue(v)) })
		case 8:
			every(step, func(r core.Runner) error { return r.HandleRealloc() })
		default:
			// Cross-restore swap: each executor resumes from the
			// other's snapshot, which must be a no-op
			// divergence-wise.
			snaps := make([]core.Snapshot, n)
			for i, r := range runners {
				snaps[i] = r.Snapshot()
			}
			for i, r := range runners {
				src := (i + 1) % n
				if err := r.Restore(snaps[src]); err != nil {
					t.Fatalf("%s step %d: restore %s snapshot into %s: %v",
						cm.Name, step, parityBackends[src], parityBackends[i], err)
				}
			}
		}
		if step%37 == 0 || step == steps-1 {
			diff(step)
		}
	}
	diff(steps)
}
