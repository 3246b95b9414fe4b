// Command memnetsim runs one memory-network simulation and reports power,
// performance and utilization; with -trace it also prints per-epoch
// management decisions (mode selections, AMS budgets, violations).
//
// Example:
//
//	memnetsim -wl mixB -topo star -size small -mech VWL+ROO -policy aware -alpha 0.05
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"memnet/internal/audit"
	"memnet/internal/cli"
	"memnet/internal/core"
	"memnet/internal/dist"
	"memnet/internal/exp"
	"memnet/internal/fault"
	"memnet/internal/link"
	"memnet/internal/metrics"
	"memnet/internal/network"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/viz"
	"memnet/internal/workload"
)

func main() {
	// The simulator's live heap is a few MB (pooled events, per-cell
	// models), but each sweep cell's construction churns tens of MB, so
	// the default GOGC=100 trigger fires a collection every ~50 ms and
	// keeps write barriers armed on the event queue's hottest stores for
	// a third of the run. Letting the heap grow several multiples first
	// trades tens of MB of peak RSS for those cycles back.
	debug.SetGCPercent(600)

	wlName := flag.String("wl", "mixB", "workload profile")
	topoName := flag.String("topo", "star", "daisychain | 'ternary tree' | star | DDRx-like")
	sizeName := flag.String("size", "small", "small (4GB/module) or big (1GB/module)")
	mechName := flag.String("mech", "VWL+ROO", "link power mechanism")
	policyName := flag.String("policy", "aware", "none | unaware | aware | static")
	alpha := flag.Float64("alpha", 0.05, "allowable slowdown factor")
	simtime := flag.String("simtime", "400us", "measured simulated interval")
	warmupF := flag.String("warmup", "100us", "simulated warmup")
	wakeup := flag.Int("wakeup", 14, "ROO wakeup latency (ns)")
	trace := flag.Bool("trace", false, "print per-epoch management trace")
	config := flag.String("config", "", "JSON batch config (overrides the single-run flags)")
	faultsFile := flag.String("faults", "", "JSON fault scenario file (see EXPERIMENTS.md)")
	timeoutF := flag.String("timeout", "", "per-request timeout, e.g. 2us (empty = wait forever)")
	retries := flag.Int("retries", 2, "timeout-driven read retries (with -timeout)")
	retrainF := flag.String("retrain", "", "link retraining latency for repair/escalation, e.g. 1us (empty = model default)")
	crcRetries := flag.Int("crcretries", 0, "consecutive CRC retries per packet before escalation (0 = model default)")
	watchdog := flag.Bool("watchdog", false, "arm the no-progress watchdog")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0),
		"parallel workers for -config batches and -sweepbench (1 = legacy sequential)")
	sweepbench := flag.String("sweepbench", "",
		"run the standard benchmark sweep at -jobs 1 and -jobs N and write the comparison JSON to this path")
	auditEvery := flag.Int("audit", audit.DefaultSampleEvery,
		"invariant auditor sampling stride (1 = check every observation, 0 = disable)")
	journalPath := flag.String("journal", "",
		"with -config: append completed runs to this JSON-lines file and resume from it on restart")
	metricsOn := flag.Bool("metrics", false,
		"sample epoch-resolution metrics over the measured interval and print a time-series figure")
	metricsIntervalF := flag.String("metrics-interval", "10us", "metrics sampling period (with -metrics)")
	metricsOut := flag.String("metrics-out", "",
		"write sampled metrics to this file; .csv gets CSV, anything else JSON lines (with -metrics)")
	coordAddr := flag.String("coordinator", "",
		"with -config: serve the batch to distributed workers on this address (e.g. :9731) instead of running locally")
	workerURL := flag.String("worker", "",
		"run as a sweep worker against this coordinator URL (e.g. http://host:9731); -journal becomes the local salvage journal")
	leaseF := flag.String("lease", "", "coordinator lease TTL granted to workers (default 10s)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken at exit, after a final GC) to this file")
	flag.Parse()

	lease := dist.DefaultLeaseTTL
	if *leaseF != "" {
		d, err := time.ParseDuration(*leaseF)
		if err != nil {
			log.Fatalf("bad -lease: %v", err)
		}
		if d <= 0 {
			log.Fatalf("bad -lease: must be positive, got %s", *leaseF)
		}
		lease = d
	}
	if *leaseF != "" && *coordAddr == "" {
		log.Fatalf("bad -lease: requires -coordinator")
	}
	if *workerURL != "" {
		if *coordAddr != "" || *config != "" {
			log.Fatalf("bad -worker: mutually exclusive with -coordinator and -config")
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "cpuprofile" || f.Name == "memprofile" {
				log.Fatalf("bad -%s: not supported with -worker (profiles flush only at a clean exit)", f.Name)
			}
		})
		if err := cli.RunWorkerMode(*workerURL, *journalPath); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *coordAddr != "" && *config == "" {
		log.Fatalf("bad -coordinator: requires -config (it serves a batch)")
	}
	if *jobs < 1 {
		log.Fatalf("bad -jobs: need at least 1 worker, got %d", *jobs)
	}
	if *auditEvery < 0 {
		log.Fatalf("bad -audit: stride must be >= 0 (0 disables), got %d", *auditEvery)
	}
	if *retries < 0 {
		log.Fatalf("bad -retries: must be non-negative, got %d", *retries)
	}
	if *crcRetries < 0 {
		log.Fatalf("bad -crcretries: must be non-negative (0 = model default), got %d", *crcRetries)
	}
	var retrainDur sim.Duration
	if *retrainF != "" {
		rt, err := time.ParseDuration(*retrainF)
		if err != nil {
			log.Fatalf("bad -retrain: %v", err)
		}
		if rt <= 0 {
			log.Fatalf("bad -retrain: must be positive, got %s", *retrainF)
		}
		retrainDur = sim.Duration(rt.Nanoseconds()) * sim.Nanosecond
	}
	if *wakeup <= 0 {
		log.Fatalf("bad -wakeup: must be a positive nanosecond count, got %d", *wakeup)
	}
	if *alpha < 0 {
		log.Fatalf("bad -alpha: slowdown factor must be non-negative, got %g", *alpha)
	}
	if !*metricsOn {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "metrics-interval" || f.Name == "metrics-out" {
				log.Fatalf("bad -%s: requires -metrics", f.Name)
			}
		})
	}
	var metricsIv sim.Duration
	if *metricsOn {
		mi, err := time.ParseDuration(*metricsIntervalF)
		if err != nil {
			log.Fatalf("bad -metrics-interval: %v", err)
		}
		if mi <= 0 {
			log.Fatalf("bad -metrics-interval: must be positive, got %s", *metricsIntervalF)
		}
		metricsIv = sim.Duration(mi.Nanoseconds()) * sim.Nanosecond
	}

	if err := cli.StartProfiles(*cpuProfile, *memProfile); err != nil {
		log.Fatal(err)
	}
	defer cli.StopProfiles()

	if *sweepbench != "" {
		if *metricsOn {
			log.Fatalf("bad -metrics: not supported with -sweepbench (it times its own metrics pass)")
		}
		// No interrupt context here on purpose: arming a cancelable
		// kernel check is exactly the overhead the bench measures in a
		// separate pass, so the timed runs stay unarmed.
		runSweepBench(*sweepbench, *jobs)
		return
	}

	ctx, stopSignals := cli.InterruptContext()
	defer stopSignals()

	if *config != "" {
		runBatch(ctx, *config, *jobs, *auditEvery, *journalPath, retrainDur, *crcRetries, metricsIv, *metricsOut,
			*coordAddr, lease)
		return
	}

	wl, err := workload.ByName(*wlName)
	if err != nil {
		log.Fatal(err)
	}
	kind, err := topology.ParseKind(*topoName)
	if err != nil {
		log.Fatal(err)
	}
	mech, err := exp.ParseMech(*mechName)
	if err != nil {
		log.Fatal(err)
	}
	policy, err := exp.ParsePolicy(*policyName)
	if err != nil {
		log.Fatal(err)
	}
	size := exp.Small
	if *sizeName == "big" {
		size = exp.Big
	} else if *sizeName != "small" {
		log.Fatalf("unknown size %q", *sizeName)
	}
	st, err := time.ParseDuration(*simtime)
	if err != nil {
		log.Fatal(err)
	}
	if st <= 0 {
		log.Fatalf("bad -simtime: must be positive, got %s", *simtime)
	}
	wu, err := time.ParseDuration(*warmupF)
	if err != nil {
		log.Fatal(err)
	}
	if wu < 0 {
		log.Fatalf("bad -warmup: must be non-negative, got %s", *warmupF)
	}

	spec := exp.Spec{
		Workload: wl,
		Topology: kind,
		Size:     size,
		Mech:     mech,
		Policy:   policy,
		Alpha:    *alpha,
		Wakeup:   sim.Duration(*wakeup) * sim.Nanosecond,
		SimTime:  sim.Duration(st.Nanoseconds()) * sim.Nanosecond,
		Warmup:   sim.Duration(wu.Nanoseconds()) * sim.Nanosecond,
		Watchdog: *watchdog,
	}
	if *auditEvery > 0 {
		spec.AuditEvery = *auditEvery
	} else {
		spec.AuditEvery = -1
	}
	if *faultsFile != "" {
		sc, err := fault.LoadScenario(*faultsFile)
		if err != nil {
			log.Fatal(err)
		}
		spec.Faults = sc
	}
	if *timeoutF != "" {
		to, err := time.ParseDuration(*timeoutF)
		if err != nil {
			log.Fatal(err)
		}
		if to <= 0 {
			log.Fatalf("bad -timeout: must be positive, got %s", *timeoutF)
		}
		spec.RequestTimeout = sim.Duration(to.Nanoseconds()) * sim.Nanosecond
		spec.MaxRetries = *retries
	}
	spec.RetrainLatency = retrainDur
	spec.CRCRetryLimit = *crcRetries
	spec.MetricsInterval = metricsIv

	if *trace {
		if *metricsOn {
			log.Fatalf("bad -metrics: not supported with -trace (the trace is already per-epoch)")
		}
		runTrace(spec)
		return
	}

	start := time.Now()
	res, err := exp.RunBudgeted(ctx, spec, exp.Budget{})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			cli.ExitInterrupted(fmt.Sprintf(
				"interrupted after %.2fs wall; no result (single runs have nothing partial to keep)",
				time.Since(start).Seconds()))
		}
		log.Fatal(err)
	}
	report(res, time.Since(start))
	if *metricsOn {
		fmt.Print(viz.RenderTimeSeries(res.Metrics))
		writeMetricsFile(*metricsOut, []metrics.Entry{{Key: spec.Key(), Dump: res.Metrics}})
	}
}

// writeMetricsFile exports sampled metrics, picking the format from the
// file extension (.csv gets CSV, anything else JSON lines). An empty
// path is a no-op so callers can pass -metrics-out through unchecked.
func writeMetricsFile(path string, entries []metrics.Entry) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("bad -metrics-out: %v", err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		err = metrics.WriteCSV(f, entries)
	} else {
		err = metrics.WriteJSONL(f, entries)
	}
	if err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	fmt.Printf("wrote metrics to %s\n", path)
}

// runBatch executes every run in a JSON config file across jobs workers;
// reports print in config order regardless of completion order. A failed
// run (audit violation, stall, recovered panic) is reported in place and
// flips the exit status without aborting the remaining runs; with
// -journal, completed runs are restored on restart instead of re-run.
// With coordAddr the cells are served to distributed workers instead of
// the local pool; the report and journal stay byte-identical. SIGINT or
// SIGTERM cancels ctx: in-flight cells abort at the next kernel check,
// completed runs stay journaled, and the process exits 130 after a
// partial-results summary.
func runBatch(ctx context.Context, path string, jobs, auditEvery int, journalPath string, retrain sim.Duration,
	crcRetries int, metricsIv sim.Duration, metricsOut string, coordAddr string, lease time.Duration) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	specs, err := exp.LoadBatch(f)
	if err != nil {
		log.Fatal(err)
	}
	for i := range specs {
		if specs[i].AuditEvery == 0 {
			if auditEvery > 0 {
				specs[i].AuditEvery = auditEvery
			} else {
				specs[i].AuditEvery = -1
			}
		}
		if specs[i].RetrainLatency <= 0 {
			specs[i].RetrainLatency = retrain
		}
		if specs[i].CRCRetryLimit <= 0 {
			specs[i].CRCRetryLimit = crcRetries
		}
		if specs[i].MetricsInterval <= 0 {
			specs[i].MetricsInterval = metricsIv
		}
	}
	var j *exp.Journal
	loaded := map[string]exp.Result{}
	if journalPath != "" {
		j, loaded, err = exp.OpenJournal(journalPath)
		if err != nil {
			log.Fatal(err)
		}
		defer j.Close()
		if len(loaded) > 0 {
			fmt.Fprintf(os.Stderr, "journal: resuming with %d completed run(s) from %s\n", len(loaded), journalPath)
		}
	}
	start := time.Now()
	var results []exp.Result
	var errs []error
	if coordAddr != "" {
		results, errs = serveBatch(coordAddr, lease, specs, j, loaded)
	} else {
		results, errs = exp.RunSpecsJournaled(ctx, specs, jobs, j, loaded)
	}
	if err := ctx.Err(); err != nil {
		completed := 0
		for _, e := range errs {
			if e == nil {
				completed++
			}
		}
		summary := fmt.Sprintf("interrupted: %d of %d runs completed", completed, len(specs))
		if j != nil {
			j.Close() // flush before os.Exit skips the defer
			summary += fmt.Sprintf("; rerun with -journal %s to resume", journalPath)
		}
		cli.ExitInterrupted(summary)
	}
	failed := 0
	var entries []metrics.Entry
	for i, res := range results {
		fmt.Printf("--- run %d/%d ---\n", i+1, len(specs))
		if errs[i] != nil {
			failed++
			fmt.Printf("FAILED: %v\n", errs[i])
			continue
		}
		report(res, 0) // per-run wall time is meaningless under the pool
		if res.Metrics != nil {
			fmt.Print(viz.RenderTimeSeries(res.Metrics))
			entries = append(entries, metrics.Entry{Key: specs[i].Key(), Dump: res.Metrics})
		}
	}
	writeMetricsFile(metricsOut, entries)
	fmt.Printf("batch: %d runs in %.2fs wall (-jobs %d)\n",
		len(specs), time.Since(start).Seconds(), jobs)
	if failed > 0 {
		if panicked := cli.CountPanics(errs); panicked > 0 {
			fmt.Fprintf(os.Stderr, "%d of %d runs failed (%d panicked)\n", failed, len(specs), panicked)
		} else {
			fmt.Fprintf(os.Stderr, "%d of %d runs failed\n", failed, len(specs))
		}
		// os.Exit skips defers: flush any armed profiles first.
		cli.StopProfiles()
		os.Exit(1)
	}
}

// runSweepBench measures the sweep executor against the sequential path
// and writes the machine-readable record tracked across PRs. 150 µs
// cells keep each timed pass a couple of seconds long — the event queue
// got fast enough that 100 µs passes finished inside one clock phase of
// a noisy shared box — and MeasureSweep's interleaved min-of-N rounds
// keep the overhead ratios (held to an absolute budget by benchdiff)
// from comparing walls across a phase boundary.
func runSweepBench(path string, jobs int) {
	specs, err := exp.BenchSweepSpecs(150*sim.Microsecond, 25*sim.Microsecond)
	if err != nil {
		log.Fatal(err)
	}
	bench, err := exp.MeasureSweep(specs, jobs)
	if err != nil {
		log.Fatal(err)
	}
	if err := bench.WriteJSON(path); err != nil {
		log.Fatal(err)
	}
	fmt.Println(bench)
	fmt.Printf("wrote %s\n", path)
}

// report prints one run's results.
func report(res exp.Result, wall time.Duration) {
	spec := res.Spec
	fmt.Printf("workload %s on %s %s network (%d modules), %s links, %s policy, alpha=%.1f%%\n",
		spec.Workload.Name, spec.Size, spec.Topology, res.Modules, spec.Mech, spec.Policy, 100*spec.Alpha)
	fmt.Printf("  power/HMC:     %.3f W  (%s)\n", res.PerHMC.Total(), res.PerHMC)
	fmt.Printf("  idle I/O:      %.1f%% of total network power\n", 100*res.IdleIOFraction())
	fmt.Printf("  throughput:    %.1f M accesses/s\n", res.Throughput/1e6)
	fmt.Printf("  read latency:  %s avg, %s p50, %s p95, %s p99\n",
		res.AvgReadLatency, res.P50, res.P95, res.P99)
	fmt.Printf("  channel util:  %.1f%%   avg link util: %.1f%%\n", 100*res.ChannelUtil, 100*res.LinkUtil)
	fmt.Printf("  links/access:  %.2f\n", res.LinksPerAccess)
	fmt.Printf("  violations:    %d (%d absorbed by AMS grants)\n", res.Violations, res.Granted)
	if res.FaultsInjected.Total() > 0 || res.Faults.Dropped > 0 || res.FrontEndFaults.ReadTimeouts > 0 {
		fi := res.FaultsInjected
		fmt.Printf("  faults:        injected %d (link-fail=%d module-fail=%d corrupt=%d wake=%d stall=%d repair=%d)\n",
			fi.Total(), fi.LinkFails, fi.ModuleFails, fi.CorruptBursts, fi.WakeFaults, fi.VaultStalls,
			fi.LinkRepairs+fi.ModuleRepairs)
		fmt.Printf("  degradation:   %d reads + %d writes completed as errors, %d lost, %d dropped, %d routing errors, %d failed links\n",
			res.Faults.ReadsFailed, res.Faults.WritesFailed,
			res.Faults.LostReads+res.Faults.LostWrites, res.Faults.Dropped,
			res.Faults.RoutingErrors, res.Faults.FailedLinks)
		fe := res.FrontEndFaults
		fmt.Printf("  timeouts:      %d read deadlines (%d retried, %d abandoned), %d write credits reclaimed, %d late responses\n",
			fe.ReadTimeouts, fe.Retries, fe.Abandoned, fe.WriteTimeouts, fe.LateResponses)
	}
	esc := res.Faults.Escalations
	if res.Faults.RepairedLinks > 0 || res.Availability.Outages > 0 ||
		res.Availability.OpenOutages > 0 || esc.Degrades+esc.Retrains+esc.HardFails > 0 {
		a := res.Availability
		fmt.Printf("  recovery:      %d links repaired, escalations degrade=%d retrain=%d hard-fail=%d, %d reads recovered\n",
			res.Faults.RepairedLinks, esc.Degrades, esc.Retrains, esc.HardFails,
			res.FrontEndFaults.RecoveredReads)
		fmt.Printf("  availability:  %.6f (%d outages, %d open, MTTR %s, downtime %s)\n",
			a.Availability, a.Outages, a.OpenOutages, a.MTTR, a.Downtime)
	}
	if wall > 0 {
		fmt.Printf("  simulated %s in %.2fs wall (%.1fM events)\n",
			spec.SimTime+spec.Warmup, wall.Seconds(), float64(res.Events)/1e6)
	} else {
		fmt.Printf("  simulated %s (%.1fM events)\n",
			spec.SimTime+spec.Warmup, float64(res.Events)/1e6)
	}
}

// runTrace replays the spec with per-epoch reporting.
func runTrace(spec exp.Spec) {
	kernel := sim.NewKernel()
	n := spec.Workload.Modules(spec.Size.ChunkGB())
	topo, err := topology.Build(spec.Topology, n)
	if err != nil {
		log.Fatal(err)
	}
	cfg := network.DefaultConfig()
	cfg.Mechanism = spec.Mech.BW
	cfg.ROO = spec.Mech.ROO
	cfg.Wakeup = spec.Wakeup
	cfg.ChunkBytes = uint64(spec.Size.ChunkGB()) << 30
	net := network.New(kernel, topo, cfg)
	mgr := core.Attach(kernel, net, core.DefaultConfig(spec.Policy, spec.Alpha))
	fe, err := workload.NewFrontEnd(kernel, net, spec.Workload, workload.DefaultFrontEndConfig(42))
	if err != nil {
		log.Fatal(err)
	}
	fe.Start()
	fmt.Printf("%s on %v\n", fe, topo)

	epoch := 100 * sim.Microsecond
	total := spec.Warmup + spec.SimTime
	prev := net.TakeSnapshot()
	for now := epoch; now <= total; now += epoch {
		kernel.Run(now)
		snap := net.TakeSnapshot()
		viol, grant := mgr.Violations()
		fmt.Printf("epoch %3d: thr=%7.1fM/s lat=%9s chanUtil=%3.0f%% viol=%d grant=%d\n",
			int(now/epoch), network.Throughput(prev, snap)/1e6,
			network.AvgReadLatency(prev, snap), 100*network.ChannelUtilization(prev, snap),
			viol, grant)
		if os.Getenv("MEMNETSIM_LINKS") != "" {
			for li, l := range net.Links {
				fmt.Printf("   link%-3d %-8s d%d bw=%d roo=%d state=%d forced=%v maxq=%d\n",
					li, l.Dir, l.Depth, l.BWTarget(), l.ROOMode(), l.State(), l.Forced(), l.MaxQueue())
			}
		}
		prev = snap
	}
	_ = link.WakeupDefault
}
