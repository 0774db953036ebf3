// farmctl is the operator CLI: compile Almanac sources, inspect the
// static analysis the seeder would perform (placement directives,
// utility polynomials, polling subjects), export the XML wire format,
// run a task from the built-in catalogue on an emulated fabric, and —
// in client mode — drive a running farm-fleetd over its RPC port.
//
// Usage:
//
//	farmctl compile  <file.alm> [-dump]   # parse + compile + report (-dump: register code disassembly)
//	farmctl analyze  <file.alm> [machine] # placement/utility/poll analysis
//	farmctl xml      <file.alm> [machine] # emit the XML wire format
//	farmctl fmt      <file.alm>           # reprint in canonical form
//	farmctl tasks                         # list the Tab. I catalogue
//	farmctl run <task> [-leaves N] [-seconds S] [-seed N]
//	farmctl builtins                      # runtime library functions
//	farmctl submit <task> [-addr HOST:PORT] [-wait DUR]
//	farmctl retire <task> [-addr HOST:PORT] [-wait DUR]
//	farmctl status [-addr HOST:PORT]
//
// Client-mode commands talk to a fleetd started with -rpc; the default
// address matches fleetd's default RPC port.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"farm/internal/fleet"
)

// defaultRPCAddr matches farm-fleetd's -rpc default.
const defaultRPCAddr = "127.0.0.1:7344"

// command is one farmctl subcommand: every entry parses its own flags
// with a flag.NewFlagSet and runs against the parsed remainder.
type command struct {
	name    string
	summary string
	run     func(args []string) error
}

var commands []command

func init() {
	commands = []command{
		{"compile", "parse + compile an Almanac source, report per-machine stats", cmdCompile},
		{"analyze", "placement/utility/poll analysis for one machine", cmdAnalyze},
		{"xml", "emit one machine's XML wire format", cmdXML},
		{"fmt", "reprint an Almanac source in canonical form", cmdFmt},
		{"tasks", "list the Tab. I catalogue", cmdTasks},
		{"run", "run a catalogue task on a one-shot emulated fabric", cmdRun},
		{"builtins", "list runtime library functions", cmdBuiltins},
		{"submit", "deploy a catalogue task on a running fleetd", cmdSubmit},
		{"retire", "undeploy a task from a running fleetd", cmdRetire},
		{"status", "show a running fleetd's task/placement status", cmdStatus},
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	for _, c := range commands {
		if c.name == os.Args[1] {
			if err := c.run(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "farmctl:", err)
				os.Exit(1)
			}
			return
		}
	}
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: farmctl <command> [flags]")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.summary)
	}
}

// newFlagSet builds the per-command FlagSet all subcommands share.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: farmctl %s [flags] [args]\n", name)
		fs.PrintDefaults()
	}
	return fs
}

// parseWithPositionals parses flags while collecting up to max leading
// non-flag arguments, so `farmctl run hh -leaves 6` and
// `farmctl run -leaves 6 hh` both work.
func parseWithPositionals(fs *flag.FlagSet, args []string, max int) ([]string, error) {
	var pos, flagArgs []string
	for _, a := range args {
		if len(pos) < max && len(a) > 0 && a[0] != '-' {
			pos = append(pos, a)
			continue
		}
		flagArgs = append(flagArgs, a)
	}
	if err := fs.Parse(flagArgs); err != nil {
		return nil, err
	}
	pos = append(pos, fs.Args()...)
	return pos, nil
}

func cmdCompile(args []string) error {
	fs := newFlagSet("compile")
	dump := fs.Bool("dump", false, "disassemble the register code of every machine")
	pos, err := parseWithPositionals(fs, args, 1)
	if err != nil {
		return err
	}
	if len(pos) < 1 {
		return fmt.Errorf("compile needs a source file")
	}
	return fleet.CompileReport(os.Stdout, pos[0], *dump)
}

func cmdAnalyze(args []string) error {
	fs := newFlagSet("analyze")
	pos, err := parseWithPositionals(fs, args, 2)
	if err != nil {
		return err
	}
	if len(pos) < 1 {
		return fmt.Errorf("analyze needs a source file")
	}
	machine := ""
	if len(pos) > 1 {
		machine = pos[1]
	}
	return fleet.AnalyzeReport(os.Stdout, pos[0], machine)
}

func cmdXML(args []string) error {
	fs := newFlagSet("xml")
	pos, err := parseWithPositionals(fs, args, 2)
	if err != nil {
		return err
	}
	if len(pos) < 1 {
		return fmt.Errorf("xml needs a source file")
	}
	machine := ""
	if len(pos) > 1 {
		machine = pos[1]
	}
	return fleet.XMLReport(os.Stdout, pos[0], machine)
}

func cmdFmt(args []string) error {
	fs := newFlagSet("fmt")
	pos, err := parseWithPositionals(fs, args, 1)
	if err != nil {
		return err
	}
	if len(pos) < 1 {
		return fmt.Errorf("fmt needs a source file")
	}
	return fleet.FormatSource(os.Stdout, pos[0])
}

func cmdTasks(args []string) error {
	fs := newFlagSet("tasks")
	if _, err := parseWithPositionals(fs, args, 0); err != nil {
		return err
	}
	fleet.ListCatalogue(os.Stdout)
	return nil
}

func cmdBuiltins(args []string) error {
	fs := newFlagSet("builtins")
	if _, err := parseWithPositionals(fs, args, 0); err != nil {
		return err
	}
	fleet.ListBuiltins(os.Stdout)
	return nil
}

func cmdRun(args []string) error {
	fs := newFlagSet("run")
	leaves := fs.Int("leaves", 4, "leaf switches")
	seconds := fs.Int("seconds", 2, "simulated seconds")
	seed := fs.Int64("seed", time.Now().UnixNano()%1000, "traffic seed")
	pos, err := parseWithPositionals(fs, args, 1)
	if err != nil {
		return err
	}
	if len(pos) < 1 {
		return fmt.Errorf("run needs a task name (see farmctl tasks)")
	}
	return fleet.RunTask(os.Stdout, pos[0], fleet.RunOptions{
		Leaves: *leaves, Seconds: *seconds, Seed: *seed,
	})
}

// dialFleet connects to a running fleetd's RPC port.
func dialFleet(addr string) (*fleet.Client, error) {
	c, err := fleet.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dial fleetd at %s: %w (is farm-fleetd running with -rpc?)", addr, err)
	}
	return c, nil
}

func cmdSubmit(args []string) error {
	fs := newFlagSet("submit")
	addr := fs.String("addr", defaultRPCAddr, "fleetd RPC address")
	wait := fs.Duration("wait", 5*time.Second, "retry window across leadership gaps")
	pos, err := parseWithPositionals(fs, args, 1)
	if err != nil {
		return err
	}
	if len(pos) < 1 {
		return fmt.Errorf("submit needs a task name (see farmctl tasks)")
	}
	c, err := dialFleet(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.SubmitWait(pos[0], *wait); err != nil {
		return err
	}
	fmt.Printf("submitted %s\n", pos[0])
	return nil
}

func cmdRetire(args []string) error {
	fs := newFlagSet("retire")
	addr := fs.String("addr", defaultRPCAddr, "fleetd RPC address")
	wait := fs.Duration("wait", 5*time.Second, "retry window across leadership gaps")
	pos, err := parseWithPositionals(fs, args, 1)
	if err != nil {
		return err
	}
	if len(pos) < 1 {
		return fmt.Errorf("retire needs a task name")
	}
	c, err := dialFleet(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.RetireWait(pos[0], *wait); err != nil {
		return err
	}
	fmt.Printf("retired %s\n", pos[0])
	return nil
}

func cmdStatus(args []string) error {
	fs := newFlagSet("status")
	addr := fs.String("addr", defaultRPCAddr, "fleetd RPC address")
	if _, err := parseWithPositionals(fs, args, 0); err != nil {
		return err
	}
	c, err := dialFleet(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := c.Status()
	if err != nil {
		return err
	}
	fmt.Printf("leader: %s (term %d)  engine time: %v  takeovers: %d  draining: %v\n",
		st.Leader, st.Term, st.Now, st.Takeovers, st.Draining)
	fmt.Printf("tasks: %d deployed, %d migrations, %d harvester reports\n",
		len(st.Tasks), st.Migrations, st.HarvestReports)
	for _, t := range st.Tasks {
		fmt.Printf("  %-16s seeds=%d\n", t.Name, t.Seeds)
	}
	if len(st.FailedSwitches) > 0 {
		fmt.Printf("failed switches: %v\n", st.FailedSwitches)
	}
	return nil
}
