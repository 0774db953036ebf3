package fleet

import (
	"fmt"
	"io"
	"os"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/harvest"
	"farm/internal/netmodel"
	"farm/internal/seeder"
	"farm/internal/soil"
	"farm/internal/tasks"
	"farm/internal/traffic"
)

// The operator pipeline farmctl fronts, as a library: compile Almanac
// sources, report the static analyses the seeder performs (placement
// directives, utility polynomials, polling subjects), emit the XML wire
// format, and run a catalogue task on a one-shot emulated fabric. The
// daemon reuses the same compile → analyze → place → install path
// through the seeder; these helpers are the offline halves.

// LoadProgram parses an Almanac source file.
func LoadProgram(path string) (*almanac.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return almanac.Parse(string(data))
}

// PickMachine selects the named machine, or the program's first.
func PickMachine(prog *almanac.Program, name string) (string, error) {
	if name != "" {
		return name, nil
	}
	if len(prog.Machines) == 0 {
		return "", fmt.Errorf("source declares no machines")
	}
	return prog.Machines[0].Name, nil
}

// codeSummary is the one-line size of a lowered machine: the register
// code the soil executes and the frames it runs in.
func codeSummary(lp *almanac.Lowered) string {
	return fmt.Sprintf("register code: %d instrs in %d chunks, max frame %d regs, %d state slots, %d env slots, %d literals, %d record layouts, %d field sites",
		lp.NumRegInstrs(), len(lp.RegChunks), lp.MaxRegs(), lp.StateSlots(), len(lp.EnvSlots), len(lp.Lits), len(lp.Structs), lp.RFieldSites)
}

// CompileReport compiles every machine of a source file and writes a
// per-machine summary, including the size of the register code the soil
// will execute. With dump set it appends each machine's full
// disassembly (frame layouts, dispatch tables, and the code).
func CompileReport(w io.Writer, path string, dump bool) error {
	prog, err := LoadProgram(path)
	if err != nil {
		return err
	}
	cms, err := almanac.Compile(prog)
	if err != nil {
		return err
	}
	lps := make([]*almanac.Lowered, len(cms))
	for i, cm := range cms {
		fmt.Fprintf(w, "machine %s: %d states (initial %s), %d vars (%d external), %d triggers, %d placements\n",
			cm.Name, len(cm.States), cm.InitialState, len(cm.Vars), len(cm.ExternalVars()), len(cm.Triggers), len(cm.Placements))
		lp, err := almanac.Lower(cm, core.BuiltinNames())
		if err != nil {
			return err // the soil would reject this machine at deploy
		}
		lps[i] = lp
		fmt.Fprintf(w, "  %s\n", codeSummary(lp))
	}
	fmt.Fprintf(w, "ok: %d machine(s), %d function(s), %d struct(s)\n",
		len(cms), len(prog.Funcs), len(prog.Structs))
	if dump {
		for _, lp := range lps {
			fmt.Fprintln(w)
			fmt.Fprint(w, lp.Disassemble())
		}
	}
	return nil
}

// AnalyzeReport writes the placement/utility/poll analysis for one
// machine of a source file ("" machine = the first).
func AnalyzeReport(w io.Writer, path, machine string) error {
	prog, err := LoadProgram(path)
	if err != nil {
		return err
	}
	name, err := PickMachine(prog, machine)
	if err != nil {
		return err
	}
	cm, err := almanac.CompileMachine(prog, name)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "machine %s\n", cm.Name)
	for _, warn := range almanac.Lint(cm) {
		fmt.Fprintf(w, "WARNING: %s\n", warn)
	}
	lp, err := almanac.Lower(cm, core.BuiltinNames())
	if err != nil {
		return err // the soil would reject this machine at deploy
	}
	fmt.Fprintln(w, codeSummary(lp))
	fmt.Fprintln(w, "placement directives:")
	for _, pl := range cm.Placements {
		if pl.HasRange {
			fmt.Fprintf(w, "  place %s %s range %s ...\n", pl.Quant, pl.Anchor, pl.RangeOp)
		} else if len(pl.Switches) > 0 {
			fmt.Fprintf(w, "  place %s on %d named switches\n", pl.Quant, len(pl.Switches))
		} else {
			fmt.Fprintf(w, "  place %s (all switches)\n", pl.Quant)
		}
	}
	fmt.Fprintln(w, "per-state utility (C^s >= 0 -> u^s):")
	for _, st := range cm.States {
		u, err := almanac.AnalyzeUtility(st.Util, nil)
		if err != nil {
			fmt.Fprintf(w, "  %s: needs deployment-time constants (%v)\n", st.Name, err)
			continue
		}
		for i, c := range u {
			fmt.Fprintf(w, "  %s case %d:\n", st.Name, i)
			for _, con := range c.Constraints {
				fmt.Fprintf(w, "    constraint: %s >= 0\n", con)
			}
			fmt.Fprintf(w, "    utility:    %s\n", c.Util)
		}
	}
	fmt.Fprintln(w, "trigger variables:")
	pis, err := almanac.AnalyzePolls(cm, nil)
	if err != nil {
		return err
	}
	for _, pi := range pis {
		fmt.Fprintf(w, "  %s (%s): rate/s = %s", pi.Name, pi.TType, pi.RatePerSec)
		if pi.What.Kind == almanac.ConstFilter {
			if key, err := soil.SubjectKey(pi.What); err == nil {
				fmt.Fprintf(w, ", subject = %s", key)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// XMLReport emits one machine's XML wire format.
func XMLReport(w io.Writer, path, machine string) error {
	prog, err := LoadProgram(path)
	if err != nil {
		return err
	}
	name, err := PickMachine(prog, machine)
	if err != nil {
		return err
	}
	cm, err := almanac.CompileMachine(prog, name)
	if err != nil {
		return err
	}
	data, err := almanac.EncodeXML(cm)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(data))
	return nil
}

// FormatSource reprints a source file in canonical form.
func FormatSource(w io.Writer, path string) error {
	prog, err := LoadProgram(path)
	if err != nil {
		return err
	}
	fmt.Fprint(w, almanac.Print(prog))
	return nil
}

// ListCatalogue writes the Tab. I catalogue.
func ListCatalogue(w io.Writer) {
	for _, d := range tasks.All() {
		fmt.Fprintf(w, "  %-16s %s\n", d.Name, d.Description)
	}
}

// ListBuiltins writes the runtime library function names.
func ListBuiltins(w io.Writer) {
	for _, n := range core.BuiltinNames() {
		fmt.Fprintln(w, n)
	}
}

// RunOptions shapes RunTask's one-shot fabric.
type RunOptions struct {
	Leaves  int // leaf switches, at least 1
	Seconds int // simulated seconds, at least 1
	Seed    int64
}

// runMaxPrinted caps the harvester reports RunTask echoes to w.
const runMaxPrinted = 10

// RunTask deploys one catalogue task on a fresh virtual-time fabric
// with a mixed workload cocktail and runs it for the configured
// simulated time — farmctl's offline `run` mode, sharing the catalogue
// and deployment path with the daemon.
func RunTask(w io.Writer, taskName string, opts RunOptions) error {
	if opts.Leaves < 1 {
		return fmt.Errorf("run: leaves must be at least 1, got %d", opts.Leaves)
	}
	if opts.Seconds < 1 {
		return fmt.Errorf("run: seconds must be at least 1, got %d", opts.Seconds)
	}
	d, err := tasks.ByName(taskName)
	if err != nil {
		return err
	}
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: 2, Leaves: opts.Leaves, HostsPerLeaf: 8,
	})
	if err != nil {
		return err
	}
	loop := engine.NewSerial()
	fab := fabric.New(topo, loop, fabric.Options{})
	sd := seeder.New(fab, seeder.Options{})
	reports := 0
	spec := seeder.TaskSpec{
		Name: d.Name, Source: d.Source, Machines: d.Machines,
		Externals: d.DefaultExternals,
		Harvester: harvest.FuncLogic{
			Message: func(ctx harvest.Context, from soil.SeedRef, v core.Value) {
				reports++
				if reports <= runMaxPrinted {
					fmt.Fprintf(w, "[%10v] %s: %s\n", ctx.Now(), from.Switch, core.FormatValue(v))
				}
			},
		},
	}
	if err := sd.AddTask(spec); err != nil {
		return err
	}
	fmt.Fprintf(w, "running %s on %d switches with mixed traffic for %ds (simulated)\n",
		d.Name, topo.NumSwitches(), opts.Seconds)

	// A workload cocktail so most tasks have something to see.
	gen := traffic.NewGenerator(fab, opts.Seed)
	stops := []func(){
		gen.SYNFlood(fabric.HostIP(0, 0), 8, 4000),
		gen.PortScan(fabric.HostIP(1, 0), fabric.HostIP(0, 1), 1000),
		gen.SuperSpreader(fabric.HostIP(2%opts.Leaves, 0), 16, 2000),
		gen.SSHBruteForce(fabric.HostIP(1, 2), fabric.HostIP(0, 2), 200),
		gen.DNSReflection(fabric.HostIP(0, 3), 4, 1000),
		gen.Slowloris(fabric.HostIP(0, 4), 12, 50),
	}
	defer func() {
		for _, s := range stops {
			s()
		}
	}()
	bulk := traffic.NewBulkWorkload(fab, traffic.BulkConfig{
		Tick: 10 * time.Millisecond, HeavyRatio: 0.1, Churn: time.Second, Seed: 5,
	})
	defer bulk.Stop()

	loop.RunFor(time.Duration(opts.Seconds) * time.Second)
	fmt.Fprintf(w, "done: %d harvester reports, %d packets dropped by local reactions\n",
		reports, fab.DroppedInFabric())
	return nil
}
