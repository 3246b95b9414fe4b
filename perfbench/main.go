// Command perfbench is memnet's benchmark. It runs one workload for
// a fixed wall time and prints, as its last line, a JSON object with the
// keys correct, attempted, failed and metrics. With -trace 0 the metrics
// are the end-to-end ones, measured with tracing off; with -trace 1 a
// separate traced run reports per-layer metrics instead.
//
// Workloads:
//
//	sweep-deep     big daisy-chain networks at high utilization (link-bound)
//	sweep-shallow  small ROO-managed networks at low/mid utilization
//	               (kernel, DRAM and management-core bound)
//	daemon-mixed   an in-process memnetd under two closed-loop HTTP clients
//
// Run it through run.sh from the repository root, which builds it first.
// Every file it writes stays under <root>/.bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of memnet sees, reported by every
// workload with tracing off. A job is one submitted batch of specs: a
// small sweep through the exp pool, or one memnetd submission. Latency
// percentiles cover fresh jobs; the daemon's repeated jobs, answered from
// stored results, count in its jobs_per_s. Their latency is sub-ms and
// fsync-bound, and on a shared host their run-to-run spread exceeded any
// usable bound, so it is reported per layer (serve.hit_ms.*) instead.
var endToEnd = []metricDef{
	{"sim_us_per_s", "us/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"job_ms.p50", "ms"},
	{"job_ms.p90", "ms"},
	{"jobs_per_s", "1/s"},
}

// perLayer are the traced run's metrics. A metric a workload's layers do
// not exercise (serve.* on the sweeps, sim.* on the daemon) reads 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.events_per_sim_us", "1/us"},
	{"sim.run_ns_per_event", "ns"},
	{"sim.queue_ns_per_op", "ns"},
	{"link.enqueue_ns", "ns"},
	{"link.busy_frac", "frac"},
	{"link.off_frac", "frac"},
	{"link.bytes", "B"},
	{"link.turnoffs_per_kevent", "count"},
	{"network.inject_ns", "ns"},
	{"network.reads", "count"},
	{"network.writes", "count"},
	{"network.links_per_access", "count"},
	{"dram.access_ns", "ns"},
	{"dram.reads", "count"},
	{"dram.writes", "count"},
	{"dram.busy_frac", "frac"},
	{"dram.accesses_per_kevent", "count"},
	{"workload.complete_ns", "ns"},
	{"workload.sample_ns", "ns"},
	{"workload.issued", "count"},
	{"core.epoch_ns", "ns"},
	{"core.epochs", "count"},
	{"core.violations", "count"},
	{"core.grants", "count"},
	{"setup.topology_ns", "ns"},
	{"setup.network_ns", "ns"},
	{"setup.frontend_ns", "ns"},
	{"setup.core_ns", "ns"},
	{"exp.pool_efficiency", "frac"},
	{"trace.sim_us_per_s", "us/s"},
	{"trace.untraced_sim_us_per_s", "us/s"},
	{"trace.overhead_frac", "frac"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.cell_ms", "ms"},
	{"serve.hit_ms.p50", "ms"},
	{"serve.hit_ms.p90", "ms"},
	{"serve.store_get_us", "us"},
	{"serve.store_put_us", "us"},
	{"serve.wal_accept_us", "us"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.rejected", "count"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"sweep-deep":    runSweep,
	"sweep-shallow": runSweep,
	"daemon-mixed":  runDaemon,
}

// defaultSeed is the seed whose sweep results the committed digest pins.
const defaultSeed = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the one-line result the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's state: its settings, its measurements and
// the correctness ledger every workload writes into.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string
	work     string // working directory of this invocation

	digests map[string]string
	values  map[string]float64
	// samples counts the samples behind each timing percentile.
	samples    map[string]int
	attempted  int
	failed     int
	mismatches []string
	spans      []span
	extra      map[string]any
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

// op records one attempted operation and whether it failed.
func (b *bench) op(failed bool) {
	b.attempted++
	if failed {
		b.failed++
	}
}

// mismatch records a correctness failure.
func (b *bench) mismatch(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.mismatches) < 50 {
		b.mismatches = append(b.mismatches, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", msg)
}

// timing records the p50 and p90 of samples under prefix.p50/.p90.
func (b *bench) timing(prefix string, samples []float64) error {
	b.samples[prefix] = len(samples)
	p50, err := percentile(samples, 0.5)
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	p90, err := percentile(samples, 0.9)
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	b.set(prefix+".p50", p50)
	b.set(prefix+".p90", p90)
	return nil
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	debug.SetGCPercent(600) // as both CLIs set it
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository checkout to run in; working files go to <root>/.bench_build")
	wl := fs.String("workload", "", "workload: sweep-deep, sweep-shallow or daemon-mixed")
	seed := fs.Uint64("seed", defaultSeed, "workload seed (sweeps: Spec.SeedSalt; daemon: the job mix)")
	seconds := fs.Int("seconds", 40, "measured wall time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	update := fs.Bool("update-digest", false, "recompute "+digestFile+" in the benchmark directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *update {
		if err := writeDigests(filepath.Join(*root, "perfbench", digestFile)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	b, err := newBench(*root, *wl, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)
	if err := runner(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep, err := b.finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newBench(root, wl string, seed uint64, seconds int, trace bool) (*bench, error) {
	digests, err := loadDigests(filepath.Join(root, "perfbench", digestFile))
	if err != nil {
		return nil, err
	}
	work := filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d", wl, os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	return &bench{
		workload: wl, seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace,
		root: root, work: work, digests: digests,
		values: map[string]float64{}, samples: map[string]int{}, extra: map[string]any{},
	}, nil
}

// finish assembles the printed report and writes the results record
// (and, for traced runs, the spans) under .bench_build.
func (b *bench) finish() (report, error) {
	rep := report{
		Correct:   len(b.mismatches) == 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := b.values[d.Name]
		if !ok && !b.trace {
			return rep, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		rep.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if rep.Attempted < 1 {
		return rep, fmt.Errorf("no operation was attempted")
	}
	host := hostFingerprint(b.root, b.seed)
	record := map[string]any{
		"host": host, "workload": b.workload, "trace": b.trace, "seconds": b.seconds.Seconds(),
		"report": rep, "samples": b.samples, "mismatches": b.mismatches, "extra": b.extra,
	}
	dir := filepath.Join(b.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rep, err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d", b.workload, b.seed, map[bool]int{false: 0, true: 1}[b.trace])
	if err := writeJSON(filepath.Join(dir, name+".json"), record); err != nil {
		return rep, err
	}
	if b.trace {
		if err := writeJSON(filepath.Join(dir, name+".spans.json"), b.spans); err != nil {
			return rep, err
		}
	}
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)
	for _, d := range defs {
		fmt.Printf("%-28s %14.4f %s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit)
	}
	return rep, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
