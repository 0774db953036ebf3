package tasks

import (
	"errors"
	"math/rand"
	"net/netip"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/dataplane"
	"farm/internal/netmodel"
)

// fuzzHost is the soil side of a fuzzed deployment: a TCAM, a clock at
// zero, and nowhere for sends and logs to go.
type fuzzHost struct{ tcam *dataplane.TCAM }

func (fuzzHost) Now() time.Duration { return 0 }
func (fuzzHost) Resources() *netmodel.Vector {
	return &netmodel.Vector{netmodel.ResVCPU: 2, netmodel.ResRAM: 1024, netmodel.ResPCIe: 1}
}
func (h fuzzHost) AddTCAMRule(r dataplane.Rule) error                    { return h.tcam.AddRule(r) }
func (h fuzzHost) RemoveTCAMRule(f dataplane.Filter) bool                { return h.tcam.RemoveRule(f) }
func (h fuzzHost) GetTCAMRule(f dataplane.Filter) (dataplane.Rule, bool) { return h.tcam.GetRule(f) }
func (fuzzHost) Send(core.SendDest, core.Value)                          {}
func (fuzzHost) SetTriggerInterval(string, float64)                      {}
func (fuzzHost) Exec(string, core.Value) (core.Value, error)             { return int64(1), nil }
func (fuzzHost) Log(string, ...any)                                      {}

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

// triggerArg is what the register VM's HandleTrigger receives for
// payload v: a poll batch as the soil hands it over, a packet lent by
// pointer, anything else cloned.
func triggerArg(v core.Value) core.Value {
	switch x := v.(type) {
	case *core.Batch:
		return x
	case core.PacketVal:
		return &x
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
		port := int64(rng.Intn(16))
		dTx := float64(rng.Intn(4000))
		return core.StructVal{L: core.LayoutOf("PortStats", []string{"dTxBytes", "port"}), V: []core.Value{dTx, port}}
	case 4:
		return core.ActionVal(dataplane.ActDrop)
	default:
		return core.List{int64(rng.Intn(8)), int64(rng.Intn(8))}
	}
}

// hhWireWith is the XML of the HH task's machine with the first ident
// node naming from renamed to: seed XML whose code names something of
// its choosing. line is the source line of that node.
func hhWireWith(tb testing.TB, from, to string) (data []byte, line int) {
	tb.Helper()
	prog, err := almanac.Parse(HHSource)
	if err != nil {
		tb.Fatal(err)
	}
	cm, err := almanac.CompileMachine(prog, "HH")
	if err != nil {
		tb.Fatal(err)
	}
	data, err = almanac.EncodeXML(cm)
	if err != nil {
		tb.Fatal(err)
	}
	re := regexp.MustCompile(`<node line="([0-9]+)" kind="ident" s="` + from + `"`)
	m := re.FindSubmatchIndex(data)
	if m == nil {
		tb.Fatalf("no ident %s in HH's XML", from)
	}
	line, _ = strconv.Atoi(string(data[m[2]:m[3]]))
	renamed := strings.Replace(string(data[m[0]:m[1]]), `s="`+from+`"`, `s="`+to+`"`, 1)
	return append(append(append([]byte(nil), data[:m[0]]...), renamed...), data[m[1]:]...), line
}

// Seed XML is resolved like source: a name that does not resolve is
// refused by DecodeXML, at the line the XML carries for it, and never
// reaches a soil's compiler.
func TestDecodeRefusesUnresolvedNames(t *testing.T) {
	for _, tc := range []struct{ from, to, msg string }{
		{"stats", "statz", "state observe: undeclared name statz"},
		{"hs", "hitters", "function setHitterRules: undeclared name hitters"},
		{"newTh", "threshold2", "state observe: undeclared name threshold2"},
	} {
		data, line := hhWireWith(t, tc.from, tc.to)
		if want := strings.Split(HHSource, "\n")[line-1]; !strings.Contains(want, tc.from) {
			t.Fatalf("the XML puts %s on line %d, which reads %q", tc.from, line, want)
		}
		cm, err := almanac.DecodeXML(data)
		var se *almanac.SemaError
		if !errors.As(err, &se) || se.Line != line || !strings.Contains(se.Msg, tc.msg) {
			t.Fatalf("DecodeXML(%s renamed %s) = %v, %v; want a SemaError at line %d: %s", tc.from, tc.to, cm, err, line, tc.msg)
		}
	}
}

// FuzzDecodeCompile drives arbitrary bytes through the path seed XML
// takes into a soil: decode (names resolved as sema resolves a
// source's), compile, render, deploy on the register VM, and one round
// of events. Any step may refuse its input; none may panic — a machine
// whose functions recurse without end fails its handlers at the
// call-depth bound. The corpus is the XML of every catalogue machine, of
// one such runaway, and of HH naming a variable its function cannot see.
func FuzzDecodeCompile(f *testing.F) {
	runaway, err := almanac.Parse(`
function ping(long n) { return pong(n + 1); }
function pong(long n) { return ping(n + 1); }
machine Runaway {
  place all;
  time tick = 10;
  long depth;
  state s {
    when (enter) do { depth = pong(0); }
    when (tick as now) do { depth = ping(now); }
  }
}`)
	if err != nil {
		f.Fatal(err)
	}
	cm, err := almanac.CompileMachine(runaway, "Runaway")
	if err != nil {
		f.Fatal(err)
	}
	xmlData, err := almanac.EncodeXML(cm)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(xmlData)
	unresolved, _ := hhWireWith(f, "hs", "hitters")
	f.Add(unresolved)
	defaults := map[string]core.Value{}
	for _, d := range All() {
		prog, err := almanac.Parse(d.Source)
		if err != nil {
			f.Fatal(err)
		}
		for _, m := range prog.Machines {
			if d.Machines != nil && !slices.Contains(d.Machines, m.Name) {
				continue // an inheritance base the task never deploys
			}
			cm, err := almanac.CompileMachine(prog, m.Name)
			if err != nil {
				f.Fatal(err)
			}
			xmlData, err := almanac.EncodeXML(cm)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(xmlData)
			for name, v := range d.DefaultExternals[m.Name] {
				defaults[name] = v
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cm, err := almanac.DecodeXML(data)
		if err != nil {
			return
		}
		prog, err := core.Compile(cm)
		if err != nil {
			return
		}
		lp, err := almanac.Lower(cm, core.BuiltinNames())
		if err != nil {
			t.Fatalf("Compile accepted a machine Lower rejects: %v", err)
		}
		_ = lp.Disassemble()
		externals := map[string]core.Value{}
		for _, name := range cm.ExternalVars() {
			v, ok := defaults[name]
			if !ok {
				v = int64(1)
			}
			externals[name] = core.CloneValue(v)
		}
		r, err := prog.NewRunner(externals, fuzzHost{tcam: dataplane.NewTCAM(128)})
		if err != nil {
			return
		}
		r.Snapshot()
		_ = r.Start()
		_ = r.HandleRealloc()
		rng := rand.New(rand.NewSource(int64(len(data))))
		for _, tr := range cm.Triggers {
			_ = r.HandleTrigger(tr.Name, triggerArg(taskPayload(rng)))
		}
		r.Snapshot()
	})
}
