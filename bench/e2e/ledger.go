package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// A ledger is the benchmark's record of one commit: per workload and
// seed, every end-to-end metric over several runs (each run its own
// process) and the per-layer table of one traced run. --ledger writes
// one, --compare reads two.
type Ledger struct {
	Env     Env           `json:"env"`
	Seconds int           `json:"seconds"`
	Entries []LedgerEntry `json:"entries"`
}

// Env is where a ledger was measured.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GitRev     string `json:"git_rev"`
}

type LedgerEntry struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	EndToEnd  map[string]RunsMetric `json:"end_to_end"`
	PerLayer  map[string]wireMetric `json:"per_layer"`
}

// RunsMetric is one end-to-end metric over the runs of an entry: each
// run's value (itself a median over the run's units), and the median
// and quartiles of those.
type RunsMetric struct {
	Unit string    `json:"unit"`
	Runs []float64 `json:"runs"`
	Dist
}

// wireMetric and wireResult are the last line a run prints: the format
// the benchmark driver reads.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// ledgerRuns is how many end-to-end runs back each ledger entry.
const ledgerRuns = 3

func currentEnv() Env {
	rev := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return Env{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), GitRev: rev,
	}
}

// childRun runs one workload in a fresh process of this binary and
// parses the result line it prints last.
func childRun(workload string, seed int64, seconds, trace int) (*wireResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res wireResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result line (%v): %v", workload, seed, runErr, err)
	}
	return &res, nil
}

// measureEntry makes the runs of one ledger entry.
func measureEntry(workload string, seed int64, seconds int) (LedgerEntry, error) {
	e := LedgerEntry{Workload: workload, Seed: seed, EndToEnd: map[string]RunsMetric{}}
	for i := 0; i < ledgerRuns; i++ {
		res, err := childRun(workload, seed, seconds, 0)
		if err != nil {
			return e, err
		}
		e.add(res)
	}
	traced, err := childRun(workload, seed, seconds, 1)
	if err != nil {
		return e, err
	}
	e.Attempted += traced.Attempted
	e.Failed += traced.Failed
	e.PerLayer = traced.Metrics
	return e, nil
}

// add folds one end-to-end run into the entry.
func (e *LedgerEntry) add(res *wireResult) {
	e.Attempted += res.Attempted
	e.Failed += res.Failed
	for name, m := range res.Metrics {
		rm := e.EndToEnd[name]
		rm.Unit = m.Unit
		rm.Runs = append(rm.Runs, m.Value)
		rm.Dist = summarize(rm.Runs)
		e.EndToEnd[name] = rm
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeLedger measures every workload on the default and the held-out
// seed and writes the ledger. It returns the process exit code.
func writeLedger(path string, seconds int) int {
	l := Ledger{Env: currentEnv(), Seconds: seconds}
	code := 0
	for _, w := range workloadNames() {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			fmt.Printf("ledger: %s seed %d: %d runs + 1 traced\n", w, seed, ledgerRuns)
			e, err := measureEntry(w, seed, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
				return 1
			}
			if e.Failed > 0 {
				fmt.Printf("ledger: %s seed %d: %d of %d ops failed\n", w, seed, e.Failed, e.Attempted)
				code = 1
			}
			l.Entries = append(l.Entries, e)
		}
	}
	if err := writeJSON(path, l); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 1
	}
	return code
}

// aaReport is what --aa writes: the same binary measured as two
// alternating sets of runs, and whether the sets agree within the
// benchmark's own bounds.
type aaReport struct {
	Env     Env      `json:"env"`
	Seconds int      `json:"seconds"`
	Pass    bool     `json:"pass"`
	Rows    []aaRow  `json:"rows"`
	Exact   []string `json:"exact_count_mismatches"`
}

type aaRow struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	A        RunsMetric `json:"a"`
	B        RunsMetric `json:"b"`
	// Diff is |median B - median A| as a share of median A; Spread is
	// the interquartile distance of all runs as a share of their median.
	Diff   float64 `json:"diff"`
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	OK     bool    `json:"ok"`
}

// runAA runs every workload as two alternating sets of runs of this
// binary. Identical code must agree with itself: a set median that
// differs by more than the metric's bound, or an exact count that
// differs at all, is a breach and a non-zero exit.
func runAA(path string, seconds int) int {
	rep := aaReport{Env: currentEnv(), Seconds: seconds, Pass: true, Exact: []string{}}
	for _, w := range workloadNames() {
		sets := [2]LedgerEntry{
			{Workload: w, EndToEnd: map[string]RunsMetric{}},
			{Workload: w, EndToEnd: map[string]RunsMetric{}},
		}
		for i := 0; i < 2*ledgerRuns; i++ {
			fmt.Printf("aa: %s run %d of %d (set %c)\n", w, i+1, 2*ledgerRuns, 'A'+i%2)
			res, err := childRun(w, defaultSeed, seconds, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
				return 1
			}
			sets[i%2].add(res)
		}
		for i := range sets {
			fmt.Printf("aa: %s traced run (set %c)\n", w, 'A'+i)
			res, err := childRun(w, defaultSeed, seconds, 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
				return 1
			}
			sets[i].PerLayer = res.Metrics
			sets[i].Failed += res.Failed
		}
		if sets[0].Failed+sets[1].Failed > 0 {
			fmt.Printf("aa: %s: failed ops\n", w)
			rep.Pass = false
		}
		for _, d := range endToEnd {
			a, b := sets[0].EndToEnd[d.Name], sets[1].EndToEnd[d.Name]
			row := aaRow{Workload: w, Metric: d.Name, A: a, B: b, Bound: d.Bound}
			row.Diff = abs(b.P50-a.P50) / a.P50
			row.Spread = summarize(append(append([]float64(nil), a.Runs...), b.Runs...)).iqrRatio()
			row.OK = row.Diff <= d.Bound
			rep.Pass = rep.Pass && row.OK
			rep.Rows = append(rep.Rows, row)
			fmt.Printf("aa: %-14s %-16s A %.6g  B %.6g  diff %.2f%%  spread %.2f%%  bound %.0f%%  %s\n",
				w, d.Name, a.P50, b.P50, 100*row.Diff, 100*row.Spread, 100*d.Bound, okWord(row.OK))
		}
		_, virtualClock := simSpecByName(w)
		for _, d := range perLayer {
			a, b := sets[0].PerLayer[d.Name].Value, sets[1].PerLayer[d.Name].Value
			if d.Exact && virtualClock && a != b {
				rep.Exact = append(rep.Exact, fmt.Sprintf("%s %s: %v != %v", w, d.Name, a, b))
				rep.Pass = false
			}
		}
	}
	for _, m := range rep.Exact {
		fmt.Printf("aa: exact count differs: %s\n", m)
	}
	if err := writeJSON(path, rep); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 1
	}
	if !rep.Pass {
		fmt.Println("aa: FAIL")
		return 1
	}
	fmt.Println("aa: pass")
	return 0
}

func okWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "BREACH"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
