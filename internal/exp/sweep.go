// Parallel sweep execution. The paper's figures are sweeps over
// {topology × size × workload × mechanism × policy} — dozens of fully
// independent simulations. Each cell builds its own kernel, network and
// workload (see Run), so cells share nothing and fan out cleanly across
// GOMAXPROCS goroutines.
//
// Generate runs an experiment in two passes. The collect pass dry-runs
// the generator with Runner.collecting set: every Runner.Run call
// enqueues its cell instead of simulating, so the generator's own control
// flow enumerates the sweep — there is no second copy of the cell lists
// to drift out of sync. The execute pass fans the recorded cells across
// the worker pool and commits results to the memo cache in sweep order.
// The final render replays the generator against the warm cache, so
// output is byte-identical to the sequential path regardless of job count
// or completion order.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"memnet/internal/stats"
)

// jobs resolves the runner's worker count.
func (r *Runner) jobs() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Generate renders one experiment, fanning its simulation cells across
// the runner's worker pool. With Jobs == 1 it is exactly e.Run(r).
func (r *Runner) Generate(e Experiment) string {
	if r.jobs() > 1 {
		r.Prefetch(r.Collect(e.Run))
	}
	return e.Run(r)
}

// Collect dry-runs gen and returns every cell it would simulate, in
// first-use order, deduplicated against each other and the memo cache.
func (r *Runner) Collect(gen func(*Runner) string) []Spec {
	r.collecting = true
	r.pendingKey = map[string]bool{}
	defer func() {
		r.collecting = false
		r.pending = nil
		r.pendingKey = nil
	}()
	gen(r)
	return r.pending
}

// Prefetch executes specs across the worker pool and memoizes the
// results. Progress lines and cache commits happen in sweep order after
// the pool drains, independent of completion order. Journaled cells are
// restored without simulating; failed cells (errors and recovered
// panics) get placeholder results and are recorded in Failures, so one
// bad cell cannot take down the rest of the sweep.
func (r *Runner) Prefetch(specs []Spec) {
	todo := r.Uncached(specs)
	if len(todo) == 0 {
		return
	}
	results, errs := RunSpecsAllCtx(r.ctx(), todo, r.jobs())
	r.commit(todo, results, errs, true)
}

// Uncached normalizes specs and filters them against the memo cache and
// the attached journal (restored cells are committed on the spot),
// returning only the cells that still need simulating — the work list
// the local pool or the distributed coordinator must actually run.
func (r *Runner) Uncached(specs []Spec) []Spec {
	var todo []Spec
	for _, s := range specs {
		s = r.normalize(s)
		k := s.key()
		if _, ok := r.cache[k]; ok {
			continue
		}
		if res, ok := r.journaled[k]; ok {
			delete(r.journaled, k)
			res = CanonicalResult(res, s)
			if r.Progress != nil {
				r.Progress(fmt.Sprintf("restored %s from journal", k))
			}
			r.cache[k] = res
			r.recordMetrics(k, res)
			continue
		}
		todo = append(todo, s)
	}
	return todo
}

// Commit stores externally computed sweep results — the distributed
// coordinator's merge — in the memo cache, in sweep order, recording
// failures exactly like the local pool. specs must be the Uncached work
// list the results were computed from. The journal is deliberately not
// appended to: in a distributed run the coordinator owns journaling.
func (r *Runner) Commit(specs []Spec, results []Result, errs []error) {
	r.commit(specs, results, errs, false)
}

// commit is the shared cache-commit loop: sweep order, placeholder
// results for failed cells, optional journal appends for fresh results.
func (r *Runner) commit(specs []Spec, results []Result, errs []error, journal bool) {
	for i, res := range results {
		k := specs[i].key()
		if err := errs[i]; err != nil {
			r.failures = append(r.failures, CellFailure{Key: k, Err: err})
			if r.Progress != nil {
				r.Progress(fmt.Sprintf("FAILED %s: %v", k, err))
			}
			r.cache[k] = Result{Spec: specs[i], Hist: &stats.LinkHourHist{}}
			continue
		}
		r.cache[k] = res
		r.recordMetrics(k, res)
		if r.Progress != nil {
			r.Progress(fmt.Sprintf("ran %s (%.1fM events)", k, float64(res.Events)/1e6))
		}
		if journal && r.journal != nil {
			if err := r.journal.Append(k, res); err != nil {
				r.failures = append(r.failures, CellFailure{Key: k, Err: fmt.Errorf("journal: %w", err)})
			}
		}
	}
}

// RunSpecsAll executes specs with jobs parallel workers (<= 0 means
// runtime.GOMAXPROCS(0)) and returns results and errors aligned with the
// input. Each job is hermetic — own kernel, network, workload, RNG — so
// the only shared state is the output slot each worker owns. Panics are
// contained per cell (see RunBudgeted).
func RunSpecsAll(specs []Spec, jobs int) ([]Result, []error) {
	return RunSpecsAllCtx(context.Background(), specs, jobs)
}

// RunSpecsAllCtx is RunSpecsAll under a context: in-flight cells abort
// within one kernel check interval of cancellation, and cells the pool
// has not started yet fail immediately with ctx's error instead of
// simulating — so an interrupted sweep hands back promptly with every
// completed cell intact and every unfinished slot marked.
func RunSpecsAllCtx(ctx context.Context, specs []Spec, jobs int) ([]Result, []error) {
	return runSpecsAll(ctx, specs, jobs, nil)
}

// runSpecsAll is the shared sweep executor. onDone, when non-nil, is
// called from the worker that ran cell i immediately after it settles —
// the journaled path uses it to persist each result at completion time
// rather than at sweep end, so a crash mid-sweep loses at most the
// in-flight cells. It may rewrite the cell's error (journal failures).
func runSpecsAll(ctx context.Context, specs []Spec, jobs int,
	onDone func(i int, res Result, err error) error) ([]Result, []error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(specs) {
		jobs = len(specs)
	}
	results := make([]Result, len(specs))
	errs := make([]error, len(specs))
	runOne := func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		results[i], errs[i] = RunBudgeted(ctx, specs[i], Budget{})
		if onDone != nil {
			errs[i] = onDone(i, results[i], errs[i])
		}
	}
	if jobs <= 1 {
		for i := range specs {
			runOne(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(specs) {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}
	return results, errs
}

// RunSpecs executes specs and returns their results in input order. A
// non-nil error is the input-order-first failure; the other results are
// still returned.
func RunSpecs(specs []Spec, jobs int) ([]Result, error) {
	results, errs := RunSpecsAll(specs, jobs)
	for i, err := range errs {
		if err != nil {
			desc := "invalid spec"
			if specs[i].Workload != nil {
				desc = specs[i].key()
			}
			return results, fmt.Errorf("run %d (%s): %w", i, desc, err)
		}
	}
	return results, nil
}

// RunSpecsJournaled is RunSpecsAllCtx with crash-safe resume: cells
// whose keys appear in loaded are restored (with spec replaced by the
// caller's canonical copy) instead of simulated, and each fresh success
// is appended (and fsynced) to j the moment its cell completes, not at
// sweep end, so a crash or interrupt loses at most the cells that were
// still in flight. Canceled cells are not journaled — a resumed sweep
// picks up exactly at the completion frontier. Results stay in input
// order; errs aligns with the input and is nil where the cell
// succeeded. j may be nil (restore only).
func RunSpecsJournaled(ctx context.Context, specs []Spec, jobs int, j *Journal, loaded map[string]Result) ([]Result, []error) {
	results := make([]Result, len(specs))
	errs := make([]error, len(specs))
	var todo []Spec
	var todoIdx []int
	for i, s := range specs {
		k := s.key()
		if res, ok := loaded[k]; ok {
			delete(loaded, k)
			results[i] = CanonicalResult(res, s)
			continue
		}
		todo = append(todo, s)
		todoIdx = append(todoIdx, i)
	}
	appendDone := func(t int, res Result, err error) error {
		if err != nil || j == nil {
			return err
		}
		if err := j.Append(todo[t].key(), res); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		return nil
	}
	fresh, ferrs := runSpecsAll(ctx, todo, jobs, appendDone)
	for t, i := range todoIdx {
		results[i], errs[i] = fresh[t], ferrs[t]
	}
	return results, errs
}
