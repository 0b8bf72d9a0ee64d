// Command robopt-bench is the repository's performance ledger: four
// closed-loop, single-client workloads over the optimizer's serving and
// library paths, nine end-to-end metrics per workload, and a traced mode that
// breaks a request down by layer. bench/README.md defines every workload and
// metric; BENCHMARK.json at the repository root is the contract.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one (workload, trace mode) run as result.json keeps it.
type runRecord struct {
	Workload  string  `json:"workload"`
	Why       string  `json:"why"`
	Trace     int     `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Passes    int     `json:"passes"`
	TailQ     float64 `json:"tailQuantile"`
	// Noisy marks a run during which the host's speed on the calibration
	// kernel drifted by more than 10%. Reported, never retried or hidden.
	Noisy    bool              `json:"noisy"`
	CalibMs  [2]float64        `json:"calibMs"`
	Metrics  map[string]metric `json:"metrics"`
	Failures []string          `json:"failures,omitempty"`
}

// resultFile is the one schema every output of the benchmark is written in.
type resultFile struct {
	Schema     int         `json:"schema"`
	GitSHA     string      `json:"gitSha"`
	GoVersion  string      `json:"goVersion"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CPUModel   string      `json:"cpuModel"`
	Fixture    string      `json:"fixture"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Command    []string    `json:"command"`
	Runs       []runRecord `json:"runs"`
}

// lastLine is the contract's result object, printed as the final stdout line.
type lastLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	outDir   string
	model    string
}

func main() {
	// One P: the driver, the server's goroutines and the garbage collector
	// take turns on one core, which repeats far better on a small shared box
	// than two threads racing over two vCPUs (bench/README.md has the numbers).
	runtime.GOMAXPROCS(1)
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("robopt-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all four, untraced then traced)")
	fs.Int64Var(&o.seed, "seed", 1, "seeds the request order")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured window")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics and trace-<workload>.json")
	contract := fs.Bool("print-contract", false, "print BENCHMARK.json as the program defines it, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *contract {
		if err := printContract(stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	// The fixture, the traces and result.json live next to the binary, which
	// run.sh builds into bench/out/.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o.outDir, o.model = filepath.Dir(exe), "gbm"
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive, --trace 0 or 1, and there are no positional arguments")
		return 2
	}
	if o.workload == "" {
		err = runAll(o, args, stdout, stderr)
	} else {
		err = runOne(o, args, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runOne measures one workload in one trace mode, in this process.
func runOne(o options, args []string, stdout io.Writer) error {
	def, ok := workloadByName(o.workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("bench: unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	e, err := newEnv(o.outDir, o.model)
	if err != nil {
		return err
	}
	var rec *runRecord
	if o.trace == 1 {
		rec, err = runTraced(e, def, o)
	} else {
		rec, err = runUntraced(e, def, o)
	}
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(o.outDir, fmt.Sprintf("run-%s-trace%d.json", def.name, o.trace)), rec); err != nil {
		return err
	}
	if os.Getenv("BENCH_CHILD") == "" {
		if err := writeJSON(filepath.Join(o.outDir, "result.json"), newResultFile(e, o, args, []runRecord{*rec})); err != nil {
			return err
		}
	}
	printRun(stdout, rec)
	return json.NewEncoder(stdout).Encode(lastLine{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
}

// runUntraced is the end-to-end run: set up three times (set-up time is the
// median), measure whole passes for --seconds, check every output.
func runUntraced(e *env, def workloadDef, o options) (*runRecord, error) {
	rec := &runRecord{Workload: def.name, Why: def.why, TailQ: def.tailQ}
	rec.CalibMs[0] = calibrate()
	var in *instance
	var setups []float64
	for i := 0; i < 3; i++ {
		if in != nil {
			in.close()
		}
		next, s, err := setupOnce(e, def, o.seed)
		if err != nil {
			return nil, err
		}
		in, setups = next, append(setups, s)
	}
	defer in.close()
	if err := in.reference(); err != nil {
		return nil, err
	}
	w := measure(in, def, o.seconds)
	for _, err := range in.validate() {
		w.fail(err)
	}
	rec.CalibMs[1] = calibrate()
	rec.Metrics = endToEnd(w, def, median(setups), in.quality())
	rec.finish(w)
	return rec, nil
}

// finish fills the outcome fields from the window and the calibration pair.
func (rec *runRecord) finish(w *window) {
	rec.Passes = w.passes
	rec.Attempted = w.attempted
	rec.Failed = min(w.failed, w.attempted)
	rec.Succeeded = rec.Attempted - rec.Failed
	rec.Failures = w.failures
	rec.Noisy = math.Abs(rec.CalibMs[1]/rec.CalibMs[0]-1) > calibDriftLimit
	rec.Correct = rec.Failed == 0
	for name, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rec.Correct = false
			rec.Failures = append(rec.Failures, fmt.Sprintf("metric %s is %v", name, m.Value))
		}
	}
}

// runAll runs every workload untraced, then traced, each in a process of its
// own (so no workload inherits another's heap), and merges the records.
func runAll(o options, args []string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	e, err := newEnv(o.outDir, o.model) // train the fixture once, up front
	if err != nil {
		return err
	}
	var runs []runRecord
	sum := lastLine{Correct: true, Metrics: map[string]metric{}}
	for trace := 0; trace <= 1; trace++ {
		for _, def := range workloads {
			cmd := exec.Command(exe, "--workload", def.name, "--trace", fmt.Sprint(trace),
				"--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds))
			cmd.Env = append(os.Environ(), "BENCH_CHILD=1")
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("bench: %s (trace %d): %w", def.name, trace, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			for _, l := range lines[:len(lines)-1] {
				fmt.Fprintf(stdout, "%s\n", l)
			}
			var rec runRecord
			raw, err := os.ReadFile(filepath.Join(o.outDir, fmt.Sprintf("run-%s-trace%d.json", def.name, trace)))
			if err == nil {
				err = json.Unmarshal(raw, &rec)
			}
			if err != nil {
				return err
			}
			runs = append(runs, rec)
			sum.Correct = sum.Correct && rec.Correct
			sum.Attempted += rec.Attempted
			sum.Failed += rec.Failed
			for name, m := range rec.Metrics {
				sum.Metrics[def.name+"/"+name] = m
			}
		}
	}
	if err := writeJSON(filepath.Join(o.outDir, "result.json"), newResultFile(e, o, args, runs)); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(sum)
}

// printRun prints every metric as "workload/name value unit".
func printRun(w io.Writer, rec *runRecord) {
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "%s/%s %.6g %s\n", rec.Workload, name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s/attempted %d count\n%s/succeeded %d count\n%s/failed %d count\n",
		rec.Workload, rec.Attempted, rec.Workload, rec.Succeeded, rec.Workload, rec.Failed)
	if rec.Noisy {
		fmt.Fprintf(w, "%s/noisy calibration kernel %.2f ms before, %.2f ms after\n", rec.Workload, rec.CalibMs[0], rec.CalibMs[1])
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "%s/failure %s\n", rec.Workload, f)
	}
}

func newResultFile(e *env, o options, args []string, runs []runRecord) resultFile {
	sha := os.Getenv("BENCH_GIT_SHA")
	if sha == "" {
		sha = "unknown"
	}
	return resultFile{
		Schema:     1,
		GitSHA:     sha,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Fixture:    e.fx.Family,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Command:    append([]string{"bench/run.sh"}, args...),
		Runs:       runs,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
