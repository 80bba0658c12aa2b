package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
)

// runResult is the parsed last line of one benchmark run.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runSteady runs the workload n times as child processes, on seeds
// o.seed .. o.seed+n-1, and prints each metric's median, quartiles and
// spread (interquartile distance over the median): the evidence for the
// bounds in BENCHMARK.json. It fails if any run fails.
func runSteady(ctx context.Context, o options, n int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	values := map[string][]float64{}
	units := map[string]string{}
	ok := true
	for i := 0; i < n && ctx.Err() == nil; i++ {
		seed := o.seed + int64(i)
		cmd := exec.CommandContext(ctx, self, "-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", trace, "-memlife", o.memlife, "-workdir", o.workdir)
		// On interrupt, let the child stop its daemon rather than kill it.
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		err := cmd.Run()
		var r runResult
		if perr := json.Unmarshal(lastLine(out.Bytes()), &r); perr != nil || err != nil || !r.Correct {
			fmt.Fprintf(stderr, "perfbench: run seed=%d failed: %v %v\n", seed, err, perr)
			ok = false
			continue
		}
		line := fmt.Sprintf("seed=%d", seed)
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		for _, name := range sortedKeys(r.Metrics) {
			line += fmt.Sprintf(" %s=%.6g", name, r.Metrics[name].Value)
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "== %s: %d runs, seeds %d..%d, %ds each\n", o.workload, n, o.seed, o.seed+int64(n)-1, o.seconds)
	fmt.Fprintf(stdout, "%-24s %-6s %14s %14s %14s %9s\n", "metric", "unit", "q1", "median", "q3", "spread")
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := (q3 - q1) / q2
		fmt.Fprintf(stdout, "%-24s %-6s %14.6g %14.6g %14.6g %8.2f%%\n", name, units[name], q1, q2, q3, 100*spread)
	}
	if !ok {
		return 1
	}
	return 0
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
