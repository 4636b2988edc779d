// Command perfbench is swvec's benchmark: four workloads that price
// the library search path by kernel family, the swserver request path
// and the swrouter scatter/merge under open-loop load, each against a
// scalar reference measured in the same run. Run it through run.sh,
// which builds it and the server binaries from the checkout:
//
//	bash perfbench/run.sh --workload search-short --seed 1 --seconds 28 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// ones (see LEDGER.md). Every output is checked; the last stdout line
// is a JSON object {correct, attempted, failed, metrics}, and the exit
// code is non-zero on any correctness-gate failure or invalid run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string // directory holding the swserver and swrouter binaries
	work     string // scratch directory for generated inputs and spans
}

var workloads = map[string]func(config) (*report, error){
	"search-short": func(c config) (*report, error) { return runSearch(c, shortLens) },
	"search-long":  func(c config) (*report, error) { return runSearch(c, longLens) },
	"serve":        runServe,
	"cluster":      runServe,
}

// benchmarkFile is the benchmark's definition at the checkout root; a
// run must report exactly the metrics it lists, with its units.
const benchmarkFile = "BENCHMARK.json"

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// expectedMetrics returns the metrics an untraced (end_to_end) or
// traced (per_layer) run must report.
func expectedMetrics(trace bool) ([]metricSpec, error) {
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	if trace {
		return def.PerLayer, nil
	}
	return def.EndToEnd, nil
}

func main() {
	os.Exit(run())
}

func run() (code int) {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "search-short, search-long, serve or cluster")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the swserver and swrouter binaries")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for generated inputs and spans")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	fn, ok := workloads[cfg.workload]
	if !ok || cfg.bin == "" || cfg.work == "" || seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		return 2
	}

	// Every exit path kills and reaps the server processes: return,
	// panic, and the signals a harness sends on timeout.
	defer killAll()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "perfbench: panic: %v\n%s", r, debug.Stack())
			code = 1
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping servers\n", s)
		killAll()
		os.Exit(1)
	}()

	want, err := expectedMetrics(cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := checkNoStrays(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := rep.conform(want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}
