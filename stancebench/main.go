// Command stancebench is the STANCE runtime's end-to-end and per-layer
// benchmark. It builds every input from a seed, drives the runtime
// through its public functions, checks every output against its own
// sequential Figure 8 oracle, and prints one JSON result line.
//
//	stancebench --workload steady --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced with the same seed, prints
// the per-layer metrics and the tracing overhead, and writes the spans
// as Chrome trace-event JSON under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run produced.
type outcome struct {
	// failed counts operations that errored or whose output missed the
	// oracle; wrong counts the oracle misses among them.
	attempted, failed, wrong int
	e2e                      map[string]float64
	layers                   map[string]float64
}

// runConfig is what a workload gets from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	tr      *tracer
	procs   int
}

type workload func(ctx context.Context, rc runConfig) (*outcome, error)

var workloads = map[string]workload{
	"steady":   runSteady,
	"wire":     runWire,
	"adaptive": runAdaptive,
	"jobs":     runJobs,
}

// e2eUnits are the end-to-end metrics every workload reports.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"round_s":      "s",
	"op_p50_ms":    "ms",
	"op_p95_ms":    "ms",
	"live_heap_mb": "MB",
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func main() {
	wl := flag.String("workload", "", "workload: steady, wire, adaptive or jobs")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "stancebench: want --workload steady|wire|adaptive|jobs, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	// One rank per CPU on the real clock, at least two so there is
	// traffic to measure; GOMAXPROCS stays at the CPU count whatever the
	// environment asks for.
	procs := runtime.NumCPU()
	if procs < 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, procs: procs}
	ctx := context.Background()

	out, err := run(ctx, rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stancebench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	metrics := map[string]metric{}
	if *traceMode == 0 {
		for name, unit := range e2eUnits {
			metrics[name] = metric{out.e2e[name], unit}
		}
	} else {
		rc.tr = newTracer()
		traced, err := run(ctx, rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stancebench: %s traced: %v\n", *wl, err)
			os.Exit(1)
		}
		// The wall-clock figures come from the untraced run; the overhead
		// is the traced run's gain in median CPU time per operation.
		for name := range layerUnits {
			if strings.HasPrefix(name, "bench.wall_") {
				traced.layers[name] = out.layers[name]
			}
		}
		traced.layers["bench.trace_overhead_pct"] = 100 * (traced.e2e["op_p50_ms"]/out.e2e["op_p50_ms"] - 1)
		traced.layers["bench.spans"] = float64(rc.tr.count())
		for name, unit := range layerUnits {
			metrics[name] = metric{traced.layers[name], unit}
		}
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *wl, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "stancebench: %v\n", err)
			os.Exit(1)
		}
		if err := rc.tr.writeChrome(path); err != nil {
			fmt.Fprintf(os.Stderr, "stancebench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "spans: %s (%d spans)\n", path, rc.tr.count())
		printSelfTimes(rc.tr)
		out.failed += traced.failed
		out.wrong += traced.wrong
		out.attempted += traced.attempted
	}
	printResult(out, metrics)
}

// printSelfTimes writes each layer's self time in the traced run to
// standard error, largest first.
func printSelfTimes(tr *tracer) {
	st := tr.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	fmt.Fprintf(os.Stderr, "self time by layer (traced run):\n")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-10s %9.3f s\n", n, st[n])
	}
}

func printResult(out *outcome, metrics map[string]metric) {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.wrong == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "stancebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// heapMB is the live heap after a forced collection, in MB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
