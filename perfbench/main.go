// Command perfbench is the end-to-end benchmark of the memlife lifetime
// simulator. It runs one named workload, measures it for a fixed time,
// checks every simulated output against committed references, and
// prints its metrics: with -trace 0 the end-to-end metrics, with
// -trace 1 the per-layer breakdown. See README.md for the workloads,
// the metric glossary and how to read a trace.
//
// Run it from the repository root through run.sh, which builds this
// package and the memlife daemon first:
//
//	bash perfbench/run.sh --workload table1-lenet --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --workload aged-remap --seed 3 --seconds 40 --steady 10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"table1-lenet", "aged-remap", "serve-mix"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	memlife  string
	workdir  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace, steady int
	var refsOut string
	fs.StringVar(&o.workload, "workload", "", "workload to run: table1-lenet, aged-remap or serve-mix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; every input is derived from it")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the measured phase runs, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	fs.IntVar(&steady, "steady", 0, "run the workload this many times, on seeds seed, seed+1, ..., and print each metric's median and quartiles")
	fs.StringVar(&o.memlife, "memlife", ".bench_build/memlife", "memlife binary that serves the serve-mix workload")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for daemon stores and other scratch files")
	fs.StringVar(&refsOut, "write-refs", "", "recompute the reference table into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	o.trace = trace != 0
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if refsOut != "" {
		if err := writeRefs(ctx, refsOut, o.memlife, o.workdir); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == o.workload
	}
	if !known {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", o.workload, workloadNames)
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be at least 1, got %d\n", o.seconds)
		return 2
	}
	if steady > 0 {
		return runSteady(ctx, o, steady, stdout, stderr)
	}

	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.workdir = dir

	rep := newReport()
	switch {
	case o.workload == "serve-mix" && o.trace:
		err = traceServe(ctx, o, refs, rep)
	case o.workload == "serve-mix":
		err = runServe(ctx, o, refs, rep)
	case o.trace:
		err = traceLifetime(ctx, o, lifetimeWorkloadNamed(o.workload), refs, rep)
	default:
		err = runLifetime(ctx, o, lifetimeWorkloadNamed(o.workload), refs, rep)
	}
	if err != nil {
		// A workload that cannot run prints no result.
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	rep.writeHuman(stderr, o)
	if err := rep.writeJSON(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

func lifetimeWorkloadNamed(name string) lifetimeWorkload {
	if name == "aged-remap" {
		return agedRemap
	}
	return table1Lenet
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics and its correctness accounting.
type report struct {
	metrics   map[string]metric
	order     []string
	attempted int
	failed    int
	errs      []string
	notes     []string
	tables    []func(io.Writer) // extra human-readable sections (trace mode)
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// attempt counts n operations, and fail one failed operation.
func (r *report) attempt(n int) { r.attempted += n }

func (r *report) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err.Error())
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// correct reports whether every operation succeeded and every output
// matched its reference.
func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// errorRate is failed operations over attempted ones.
func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// writeJSON prints the machine-readable result as one line.
func (r *report) writeJSON(w io.Writer) error {
	ms := make(map[string]metric, len(r.metrics))
	for k, m := range r.metrics {
		// A miss makes a latency percentile infinite; JSON has no
		// infinity, so it is reported as the largest float.
		if math.IsInf(m.Value, 1) || math.IsNaN(m.Value) {
			m.Value = math.MaxFloat64
		}
		ms[k] = m
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeHuman prints every metric by name and unit, the error rate, the
// notes and any trace tables.
func (r *report) writeHuman(w io.Writer, o options) {
	mode := "end-to-end"
	if o.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%d: %s metrics\n", o.workload, o.seed, o.seconds, mode)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-24s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-24s %14.6g %s (%d failed of %d attempted)\n", "error_rate", r.errorRate(), "ratio", r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, t := range r.tables {
		t(w)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "FAIL %s\n", e)
	}
}
