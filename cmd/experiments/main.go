// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig5
//	experiments -run all -simtime 1ms
//
// Output is a text table per experiment whose rows/series match the
// paper's plots; EXPERIMENTS.md records a full paper-vs-measured pass.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"memnet/internal/audit"
	"memnet/internal/cli"
	"memnet/internal/dist"
	"memnet/internal/exp"
	"memnet/internal/fault"
	"memnet/internal/metrics"
	"memnet/internal/sim"
	"memnet/internal/viz"
)

func parseDuration(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return sim.Duration(d.Nanoseconds()) * sim.Nanosecond, nil
}

func main() {
	// Same GC posture as memnetsim: the live heap is a few MB but sweep
	// cells churn construction garbage, and GOGC=100 keeps write
	// barriers armed on the event queue's hottest stores for a large
	// fraction of the run. A higher trigger trades a bounded RSS bump
	// for those cycles back.
	debug.SetGCPercent(600)

	runName := flag.String("run", "", "experiment to run (or 'all')")
	list := flag.Bool("list", false, "list experiments")
	calibrate := flag.Bool("calibrate", false,
		"validate the model against the published reference table and print the accuracy report (exits 1 on drift)")
	simtime := flag.String("simtime", "400us", "measured simulated interval per run")
	warmup := flag.String("warmup", "100us", "simulated warmup per run")
	outDir := flag.String("outdir", "", "also write each experiment's output to <outdir>/<name>.txt")
	verbose := flag.Bool("v", false, "print a line per fresh simulation run")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0),
		"parallel simulation workers per experiment (1 = sequential; output is identical either way)")
	faultsFile := flag.String("faults", "", "JSON fault scenario applied to every cell of the sweep")
	retrainF := flag.String("retrain", "", "link retraining latency for repair/escalation, e.g. 1us (empty = model default)")
	crcRetries := flag.Int("crcretries", 0, "consecutive CRC retries per packet before escalation (0 = model default)")
	auditEvery := flag.Int("audit", audit.DefaultSampleEvery,
		"invariant auditor sampling stride (1 = check every observation, 0 = disable)")
	journalPath := flag.String("journal", "",
		"append completed cells to this JSON-lines file and resume from it on restart")
	metricsOn := flag.Bool("metrics", false,
		"sample epoch-resolution metrics in every cell and print a sweep-aggregate time-series figure")
	metricsIntervalF := flag.String("metrics-interval", "10us", "metrics sampling period (with -metrics)")
	metricsOut := flag.String("metrics-out", "",
		"write per-cell metrics to this file; .csv gets CSV, anything else JSON lines (with -metrics)")
	coordAddr := flag.String("coordinator", "",
		"serve every experiment's sweep to distributed workers on this address (e.g. :9731) instead of running locally")
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
			fmt.Fprintf(os.Stderr, "bad -lease: %v\n", err)
			os.Exit(1)
		}
		if d <= 0 {
			fmt.Fprintf(os.Stderr, "bad -lease: must be positive, got %s\n", *leaseF)
			os.Exit(1)
		}
		lease = d
	}
	if *leaseF != "" && *coordAddr == "" {
		fmt.Fprintf(os.Stderr, "bad -lease: requires -coordinator\n")
		os.Exit(1)
	}
	if *calibrate {
		runCalibrate(*jobs, *simtime, *warmup, *outDir)
		return
	}
	if *workerURL != "" {
		if *coordAddr != "" || *runName != "" {
			fmt.Fprintf(os.Stderr, "bad -worker: mutually exclusive with -coordinator and -run\n")
			os.Exit(1)
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "cpuprofile" || f.Name == "memprofile" {
				fmt.Fprintf(os.Stderr, "bad -%s: not supported with -worker (profiles flush only at a clean exit)\n", f.Name)
				os.Exit(1)
			}
		})
		if err := cli.RunWorkerMode(*workerURL, *journalPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *coordAddr != "" && *runName == "" {
		fmt.Fprintf(os.Stderr, "bad -coordinator: requires -run (it serves a sweep)\n")
		os.Exit(1)
	}

	if *list || *runName == "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "cpuprofile" || f.Name == "memprofile" {
				fmt.Fprintf(os.Stderr, "bad -%s: requires -run (nothing to profile)\n", f.Name)
				os.Exit(1)
			}
		})
		fmt.Println("experiments:")
		for _, e := range exp.Registry {
			heavy := ""
			if e.Heavy {
				heavy = " [heavy]"
			}
			fmt.Printf("  %-9s %s%s\n", e.Name, e.Description, heavy)
		}
		return
	}

	if err := cli.StartProfiles(*cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer cli.StopProfiles()

	ctx, stopSignals := cli.InterruptContext()
	defer stopSignals()

	r := exp.NewRunner()
	r.Ctx = ctx
	var err error
	if r.SimTime, err = parseDuration(*simtime); err != nil {
		fmt.Fprintf(os.Stderr, "bad -simtime: %v\n", err)
		os.Exit(1)
	}
	if r.SimTime <= 0 {
		fmt.Fprintf(os.Stderr, "bad -simtime: must be positive, got %s\n", *simtime)
		os.Exit(1)
	}
	if r.Warmup, err = parseDuration(*warmup); err != nil {
		fmt.Fprintf(os.Stderr, "bad -warmup: %v\n", err)
		os.Exit(1)
	}
	if r.Warmup < 0 {
		fmt.Fprintf(os.Stderr, "bad -warmup: must be non-negative, got %s\n", *warmup)
		os.Exit(1)
	}
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "bad -jobs: need at least 1 worker, got %d\n", *jobs)
		os.Exit(1)
	}
	if *auditEvery < 0 {
		fmt.Fprintf(os.Stderr, "bad -audit: stride must be >= 0 (0 disables), got %d\n", *auditEvery)
		os.Exit(1)
	}
	if *crcRetries < 0 {
		fmt.Fprintf(os.Stderr, "bad -crcretries: must be non-negative (0 = model default), got %d\n", *crcRetries)
		os.Exit(1)
	}
	if !*metricsOn {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "metrics-interval" || f.Name == "metrics-out" {
				fmt.Fprintf(os.Stderr, "bad -%s: requires -metrics\n", f.Name)
				os.Exit(1)
			}
		})
	} else {
		if r.Metrics, err = parseDuration(*metricsIntervalF); err != nil {
			fmt.Fprintf(os.Stderr, "bad -metrics-interval: %v\n", err)
			os.Exit(1)
		}
		if r.Metrics <= 0 {
			fmt.Fprintf(os.Stderr, "bad -metrics-interval: must be positive, got %s\n", *metricsIntervalF)
			os.Exit(1)
		}
	}
	if *retrainF != "" {
		if r.Retrain, err = parseDuration(*retrainF); err != nil {
			fmt.Fprintf(os.Stderr, "bad -retrain: %v\n", err)
			os.Exit(1)
		}
		if r.Retrain <= 0 {
			fmt.Fprintf(os.Stderr, "bad -retrain: must be positive, got %s\n", *retrainF)
			os.Exit(1)
		}
	}
	r.CRCRetries = *crcRetries
	if *verbose {
		r.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	r.Jobs = *jobs
	if *auditEvery == 0 {
		r.Audit = -1
	} else {
		r.Audit = *auditEvery
	}
	if *faultsFile != "" {
		sc, err := fault.LoadScenario(*faultsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -faults: %v\n", err)
			os.Exit(1)
		}
		r.Faults = sc
	}
	var journal *exp.Journal
	var journalLoaded map[string]exp.Result
	if *journalPath != "" {
		j, loaded, err := exp.OpenJournal(*journalPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -journal: %v\n", err)
			os.Exit(1)
		}
		defer j.Close()
		if len(loaded) > 0 {
			fmt.Fprintf(os.Stderr, "journal: resuming with %d completed cell(s) from %s\n", len(loaded), *journalPath)
		}
		journal, journalLoaded = j, loaded
	}
	// In coordinator mode the coordinator owns the journal (cells are
	// restored and appended at the merge point); locally the runner does.
	var dc *distCoordinator
	if *coordAddr != "" {
		dc = startCoordinator(*coordAddr, lease, journal, journalLoaded)
		defer dc.close()
	} else if journal != nil {
		r.AttachJournal(journal, journalLoaded)
	}
	// generate renders one experiment, fanning its cells across the local
	// pool or, in coordinator mode, the connected workers.
	generate := func(e exp.Experiment) string {
		if dc == nil {
			return r.Generate(e)
		}
		if todo := r.Uncached(r.Collect(e.Run)); len(todo) > 0 {
			results, errs := dc.sweep(todo)
			r.Commit(todo, results, errs)
		}
		return e.Run(r)
	}
	// Cell failures (audit violations, stalls, recovered panics) are
	// reported after rendering: the healthy cells still produce output.
	// An interrupt is reported as a partial run, not a cell failure —
	// completed cells are already journaled and a -journal rerun resumes
	// from them.
	reportFailures := func() {
		fails := r.Failures()
		if err := ctx.Err(); err != nil {
			canceled := 0
			for _, f := range fails {
				if errors.Is(f.Err, context.Canceled) {
					canceled++
				}
			}
			summary := fmt.Sprintf("interrupted: %d cell(s) canceled mid-sweep", canceled)
			if journal != nil {
				journal.Close() // flush before os.Exit skips the defer
				summary += fmt.Sprintf("; completed cells are journaled — rerun with -journal %s to resume",
					*journalPath)
			}
			if dc != nil {
				dc.close()
			}
			cli.ExitInterrupted(summary)
		}
		if len(fails) == 0 {
			return
		}
		panicked := 0
		for _, f := range fails {
			var pe *exp.PanicError
			if errors.As(f.Err, &pe) {
				panicked++
			}
		}
		if panicked > 0 {
			fmt.Fprintf(os.Stderr, "\n%d cell(s) failed (%d panicked):\n", len(fails), panicked)
		} else {
			fmt.Fprintf(os.Stderr, "\n%d cell(s) failed:\n", len(fails))
		}
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "  %s: %v\n", f.Key, f.Err)
		}
		if dc != nil {
			// os.Exit skips defers: dismiss the workers first.
			dc.close()
		}
		cli.StopProfiles()
		os.Exit(1)
	}

	// metricsFigure renders the sweep-aggregate time series for the
	// cells recorded since the last call (one experiment's sweep).
	seen := 0
	metricsFigure := func() string {
		if !*metricsOn {
			return ""
		}
		ents := r.MetricsEntries()[seen:]
		seen += len(ents)
		dumps := make([]*metrics.Dump, len(ents))
		for i, e := range ents {
			dumps[i] = e.Dump
		}
		agg, err := metrics.Merge(dumps...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics merge: %v\n", err)
			return ""
		}
		return viz.RenderTimeSeries(agg)
	}
	exportMetrics := func() {
		if *metricsOut == "" {
			return
		}
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -metrics-out: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		ents := r.MetricsEntries()
		if strings.HasSuffix(*metricsOut, ".csv") {
			err = metrics.WriteCSV(f, ents)
		} else {
			err = metrics.WriteJSONL(f, ents)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *metricsOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics for %d cell(s) to %s\n", len(ents), *metricsOut)
	}

	save := func(name, out string) {
		if *outDir == "" {
			return
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "outdir: %v\n", err)
			os.Exit(1)
		}
		path := *outDir + "/" + name + ".txt"
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
			os.Exit(1)
		}
	}

	fmt.Print(exp.ReportHeader(r))
	if *runName == "all" {
		for _, e := range exp.Registry {
			start := time.Now()
			out := generate(e)
			fmt.Printf("\n%s\n(%s in %.1fs)\n", out, e.Name, time.Since(start).Seconds())
			fmt.Print(metricsFigure())
			save(e.Name, out)
		}
		exportMetrics()
		reportFailures()
		return
	}
	e, ok := exp.Lookup(*runName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; -list shows options\n", *runName)
		os.Exit(1)
	}
	fmt.Println()
	out := generate(e)
	fmt.Print(out)
	fmt.Print(metricsFigure())
	save(e.Name, out)
	exportMetrics()
	reportFailures()
}
