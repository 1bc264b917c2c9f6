// Command perfbench is the repository's benchmark. One process builds
// every input from --seed, drives the program through its public
// packages, checks every output, and prints the metrics as the last
// line of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":V,"unit":"U"},...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload convolution|raycasting --seed N --seconds S --trace 0|1
//
// Every run measures three phases, interleaved so that each gets a fixed
// share of --seconds spread over the whole run, and reports every metric
// of each:
//
//   - tune: the paper's pipeline. Session.Run(ctx, "ml") on SimMeasurer
//     with the paper's model (k=11 networks, 30 hidden units) over a fixed
//     set of convolution cases, with N and M scaled down. It exercises the
//     simulated measurement, the gather pool and memo, ANN training (the
//     dominant cost) and one full-space TopM per case; the serving stack
//     stays idle.
//   - serve: the daemon's cached read path in steady state. Two
//     closed-loop clients (callers of mltuned wait for each reply): one
//     over HTTP on one keep-alive connection, one over RPC on one pooled
//     connection, each sending a seeded mix of single predicts, batches
//     of 16 and cached top-10 queries over three int16 models. Transport,
//     codecs, resolve, the serve cache and the forward pass do the work;
//     sweeps and training are bypassed.
//   - cold: the cold paths, from one serial client. Each iteration swaps
//     a key between two artifacts with different weights (backend Put,
//     then ReloadModels), times the first predict and the first (seeded)
//     top-200 after the swap, and times one truly cold TopM(200) on a
//     freshly loaded int16 model. Sweeper, exact re-score, persistence
//     and registry do the work.
//
// The workload names the benchmark whose models the serve and cold
// phases use: convolution (131,072 configurations) or raycasting
// (655,360). The tune phase is the same in both.
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// the first half of the run is untraced and the second half records
// spans around each call into a layer; the run reports the per-layer
// metrics, a reconciliation share and the tracing overhead of each phase
// (traced median minus untraced median; for tune, the median difference
// of the same passes), and writes the spans to
// .bench_build/trace-<workload>.jsonl.
//
// A run exits 1 (after printing its result) when any output is wrong,
// any operation fails, a path proof — the counters that show a phase
// took the path it claims — does not hold, or the result does not hold
// exactly the metrics BENCHMARK.json lists for the mode.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run builds its set-up; setup_s is their
// median, and the last one is kept for measuring.
const setupReps = 3

// workloads are the benchmarks whose models the serve and cold phases
// use; each workload is named after its benchmark.
var workloads = []string{"convolution", "raycasting"}

// phaseShares is the share of the measuring time each phase gets, in
// the order tune, serve, cold.
var phaseShares = [3]float64{0.45, 0.25, 0.30}

// outcome is what the phases of a run add up to.
type outcome struct {
	attempted, failed int
	// problems lists every correctness or path-proof failure.
	problems []string
	rep      *report
}

func (o *outcome) failf(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// runConfig is the parsed command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir is a scratch directory inside the checkout for artifacts.
	workDir string
}

// setup is everything a run builds before it measures.
type setup struct {
	cases []tuneCase
	serve *serveSetup
	cold  *coldSetup
}

func buildSetup(cfg runConfig, rep int) (*setup, error) {
	st := &setup{}
	var err error
	if st.cases, err = buildTuneCases(); err != nil {
		return nil, err
	}
	if st.serve, err = buildServe(cfg.workload); err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		st.close()
		return nil, err
	}
	if st.cold, err = buildCold(cfg.workload, dir); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *setup) close() {
	if st.serve != nil {
		st.serve.d.close()
	}
	if st.cold != nil {
		st.cold.d.close()
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: convolution or raycasting")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measuring time in seconds")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want convolution or raycasting)\n", *workload)
		os.Exit(2)
	}
	want, err := manifestMetrics(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	workDir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: workDir}
	out, err := run(cfg)
	os.RemoveAll(workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.rep.print(*workload)
	checkMetrics(out, want, cfg.trace)
	for _, p := range out.problems {
		fmt.Println("FAIL:", p)
	}
	correct := len(out.problems) == 0 && out.failed == 0
	if err := printResult(correct, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// run sets up, then measures the tune, serve and cold phases
// interleaved.
func run(cfg runConfig) (*outcome, error) {
	reps := 0
	st, setupS, err := timedSetup(func() (*setup, error) {
		reps++
		return buildSetup(cfg, reps)
	}, (*setup).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	models, err := prepareModels(st.serve.fixtures, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := warmServe(st.serve.d, models); err != nil {
		return nil, err
	}
	cold, err := newColdState(st.cold, cfg.seed)
	if err != nil {
		return nil, err
	}
	// Warm-up, not timed: one tune pass on problems the measured passes
	// never see, so the first measured passes do not pay for growing the
	// heap.
	warmCfg := cfg
	warmCfg.seed = deriveSeed(cfg.seed, 'W', 0)
	warm := &tunePhase{cfg: warmCfg, cases: st.cases, out: &outcome{rep: newReport()}}
	if warm.step(); len(warm.out.problems) > 0 {
		return nil, fmt.Errorf("tune warm-up: %s", warm.out.problems[0])
	}

	out := &outcome{rep: newReport()}
	measure := func(d time.Duration, tr *tracer) (*tunePhase, *servePhase, *coldPhase) {
		tp := &tunePhase{cfg: cfg, cases: st.cases, out: out, tr: tr}
		sp := newServePhase(st.serve.d, models, cfg.seed, out, tr)
		cp := &coldPhase{s: cold, out: out, tr: tr}
		interleave(d, [3]func(){tp.step, sp.step, cp.step})
		return tp, sp, cp
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		tp, sp, cp := measure(total, nil)
		out.rep.add("setup_s", setupS, "s", setupReps)
		addPeakRSS(out)
		reportTune(out.rep, tp.passes)
		reportServe(out.rep, sp.finish())
		reportCold(out.rep, cp.iters)
		return out, nil
	}
	// The first half is untraced, the second traced; the two halves send
	// the same requests and tune the same problems.
	ut, us, uc := measure(total/2, nil)
	tr := newTracer()
	tt, ts, tc := measure(total-total/2, tr)
	spans := finishTrace(tr, cfg.workload)
	reportTuneLayers(out.rep, ut.passes, tt.passes, spans)
	reportServeLayers(out.rep, us.finish(), ts.finish())
	reportColdLayers(out.rep, uc.iters, tc.iters)
	return out, nil
}

// interleave runs the phases' steps for d, each time stepping the phase
// furthest behind its share of the time spent so far. Every phase thus
// samples the whole measuring window, and a change in the host's speed
// during a run reaches all of them alike. Each phase takes at least one
// step.
func interleave(d time.Duration, steps [3]func()) {
	var spent [3]time.Duration
	start := time.Now()
	for time.Since(start) < d || spent[0] == 0 || spent[1] == 0 || spent[2] == 0 {
		next := 0
		for i := range steps {
			if float64(spent[i])/phaseShares[i] < float64(spent[next])/phaseShares[next] {
				next = i
			}
		}
		t0 := time.Now()
		steps[next]()
		spent[next] += time.Since(t0)
	}
}

// manifestMetrics reads the names of the metrics a run must report from
// BENCHMARK.json: the per-layer ones when traced, else the end-to-end
// ones.
func manifestMetrics(traced bool) (map[string]string, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	type entry struct{ Name, Unit string }
	var m struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := m.EndToEnd
	if traced {
		list = m.PerLayer
	}
	want := make(map[string]string, len(list))
	for _, e := range list {
		want[e.Name] = e.Unit
	}
	return want, nil
}

// checkMetrics fails the run unless it reports exactly the wanted
// metrics, each in its unit with a finite value; end-to-end values must
// also be positive.
func checkMetrics(out *outcome, want map[string]string, traced bool) {
	for name, unit := range want {
		m, ok := out.rep.metrics[name]
		switch {
		case !ok:
			out.failf("metric %s missing from the result", name)
		case m.Unit != unit:
			out.failf("metric %s in %s, BENCHMARK.json says %s", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			out.failf("metric %s = %v", name, m.Value)
		case !traced && m.Value <= 0:
			out.failf("end-to-end metric %s = %v, must be positive", name, m.Value)
		}
	}
	for _, name := range out.rep.names {
		if _, ok := want[name]; !ok {
			out.failf("metric %s is not in BENCHMARK.json", name)
		}
	}
}

// printResult writes the one-line JSON result.
func printResult(correct bool, out *outcome) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"correct":%t,"attempted":%d,"failed":%d,"metrics":{`, correct, out.attempted, out.failed)
	for i, name := range out.rep.names {
		m := out.rep.metrics[name]
		if i > 0 {
			b.WriteByte(',')
		}
		nameJSON, _ := json.Marshal(name) // a string always marshals
		unitJSON, _ := json.Marshal(m.Unit)
		fmt.Fprintf(&b, `%s:{"value":%s,"unit":%s}`, nameJSON, formatValue(m.Value), unitJSON)
	}
	b.WriteString("}}\n")
	_, err := os.Stdout.Write(b.Bytes())
	return err
}

// formatValue prints a value with all its digits; a value that is not a
// finite number becomes null, which the result reader rejects.
func formatValue(v float64) string {
	if v != v || v > 1e308 || v < -1e308 {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// addPeakRSS reports the process's peak resident set size so far. The
// workloads call it as soon as measuring ends, before their own
// analysis allocates.
func addPeakRSS(out *outcome) {
	rss, err := peakRSSMB()
	if err != nil {
		out.failf("reading peak RSS: %v", err)
		return
	}
	out.rep.add("peak_rss_mb", rss, "MB", 1)
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// timedSetup runs build setupReps times, closing every instance but the
// last, and returns the last instance with the median set-up time.
func timedSetup[T any](build func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			closeFn(last)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// finishTrace computes self times, prints them and writes the spans.
func finishTrace(tr *tracer, workload string) []span {
	spans := tr.finish()
	printSelfTimes(spans)
	path := filepath.Join(".bench_build", "trace-"+workload+".jsonl")
	if err := writeSpans(path, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		fmt.Printf("spans: %d written to %s\n", len(spans), path)
	}
	return spans
}

// mix64 is the splitmix64 finaliser, used to derive independent seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed returns a positive seed for one (stream, index) of the run.
func deriveSeed(seed int64, stream, index uint64) int64 {
	return int64(mix64(mix64(mix64(uint64(seed))^stream)^index)>>1) + 1
}
