// Command perfbench is the repository benchmark: one process that runs
// one workload (fig5, corrupted or serve), checks the program's outputs,
// and prints every metric by name with its unit and sample count. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With -trace 1 the run records spans around the benchmark's
// own calls into each layer and the metrics are the per-layer ones.
// README.md in this directory describes the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// modelSeed fixes the trained model and evaluator. The workload seed
// varies only what the workloads feed the program (trial seeds, request
// streams, arrival times), so runs with different seeds measure the same
// system on different inputs.
const modelSeed = 1

// setupReps is how many times a run builds its set-up; setup_s is the
// median of these builds.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark run.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string

	// tr records spans during the traced phase; nil otherwise.
	tr *tracer

	res      result
	failures []string
	// notRun lists per-layer metrics a workload does not exercise,
	// with the reason; they are reported as 0.
	notRun map[string]string
	lines  []string
}

// e2e records an end-to-end metric. Only untraced runs report them.
func (b *bench) e2e(name, unit string, v float64, samples int) {
	b.lines = append(b.lines, fmt.Sprintf("  %-22s %14.4f %-6s n=%d", name, v, unit, samples))
	if !b.trace {
		b.res.Metrics[name] = metric{Value: v, Unit: unit}
	}
}

// layer records a per-layer metric of a traced run.
func (b *bench) layer(name, unit string, v float64, samples int) {
	if !b.trace {
		return
	}
	b.lines = append(b.lines, fmt.Sprintf("  %-26s %14.4f %-6s n=%d", name, v, unit, samples))
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// skip records a per-layer metric this workload does not exercise.
func (b *bench) skip(reason string, names ...string) {
	if !b.trace {
		return
	}
	for _, n := range names {
		if _, ok := b.res.Metrics[n]; ok {
			continue
		}
		b.notRun[n] = reason
		b.res.Metrics[n] = metric{Value: 0, Unit: layerUnits[n]}
	}
}

func (b *bench) printf(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// check fails the run when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// ops counts attempted and failed operations.
func (b *bench) ops(attempted, failed int) {
	b.res.Attempted += int64(attempted)
	b.res.Failed += int64(failed)
}

// phaseSeconds is the measuring time of one measured phase: the whole
// run untraced, half of it for each of the untraced and traced phases of
// a traced run.
func (b *bench) phaseSeconds() float64 {
	if b.trace {
		return b.seconds / 2
	}
	return b.seconds
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: fig5, corrupted or serve")
	seed := fs.Uint64("seed", 1, "workload seed: trial seeds, request streams and arrival times derive from it")
	seconds := fs.Float64("seconds", 20, "measuring time of the run in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runners := map[string]func(*bench) error{
		"fig5":      runFig5,
		"corrupted": runCorrupted,
		"serve":     runServe,
	}
	runW, ok := runners[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload fig5|corrupted|serve, -seconds > 0, -trace 0|1\n")
		return 2
	}

	// Pin GOMAXPROCS before any set-up: the evaluator sizes its replica
	// pool once, at construction, from GOMAXPROCS.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds,
		trace:  *traceFlag == 1,
		res:    result{Metrics: map[string]metric{}},
		notRun: map[string]string{},
	}
	b.workDir = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.workDir)

	env := map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.seconds, "trace": b.trace,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpuModel(), "go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	start := time.Now()
	err := runW(b)
	if err != nil {
		b.check(false, "workload %s: %v", b.workload, err)
	}
	if b.tr != nil {
		if path, werr := b.tr.write(filepath.Join(".bench_build", "traces"), b.workload, b.seed); werr != nil {
			b.check(false, "writing spans: %v", werr)
		} else {
			b.printf("spans: %d written to %s", b.tr.len(), path)
		}
	}
	rss := peakRSSMB()
	b.e2e("peak_rss_mb", "MB", rss, 1)
	if b.trace {
		b.layer("trace.peak_rss_mb", "MB", rss, 1)
	}
	b.res.Correct = len(b.failures) == 0 && err == nil

	for _, l := range b.lines {
		fmt.Fprintln(stdout, l)
	}
	if len(b.notRun) > 0 {
		names := make([]string, 0, len(b.notRun))
		for n := range b.notRun {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(stdout, "  %-26s %14s        (0: %s)\n", n, "n/a", b.notRun[n])
		}
	}
	for _, f := range b.failures {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", f)
	}
	fmt.Fprintf(stdout, "wall %.1fs\n", time.Since(start).Seconds())
	out, _ := json.Marshal(b.res)
	fmt.Fprintf(stdout, "%s\n", out)
	if !b.res.Correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel reads the CPU model name for the environment record.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// medianSetup builds the workload's set-up setupReps times and returns
// the last build and the median build time in seconds. Each earlier
// build is released (release may be nil) and dropped before the next
// one starts, so the set-up's peak memory holds one build.
func medianSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var zero T
	times := make([]float64, 0, setupReps)
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupReps-1 {
			return v, median(times), nil
		}
		if release != nil {
			release(v)
		}
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// windowed splits xs, in time order, into windows of at least size
// samples and returns the median of the windows' q-quantiles.
func windowed(xs []float64, q float64, size int) float64 {
	n := max(1, len(xs)/size)
	w := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		w = append(w, quantile(xs[k*len(xs)/n:(k+1)*len(xs)/n], q))
	}
	return median(w)
}

// fmtRates renders per-round rates for the text output.
func fmtRates(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.1f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// rng is a small deterministic generator (splitmix64) for the
// benchmark's own input choices: campaign seeds, replayed trials,
// request order and seeds.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ (stream+1)*0xD1B54A32D192ED03}
}

func (r *rng) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

func (r *rng) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

var background = context.Background()
