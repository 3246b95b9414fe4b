package cli

import (
	"context"
	"errors"
	"fmt"
	"os"

	"memnet/internal/dist"
	"memnet/internal/exp"
)

// Logf writes one progress line to stderr.
func Logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// RunWorkerMode joins the coordinator at url and executes cells until
// the sweep completes (the lease TTL is the coordinator's to grant).
// fallbackPath, when set, is the local salvage journal for results the
// worker finished but could not deliver. SIGINT/SIGTERM cancels the
// worker's context: the in-flight cell aborts at the next kernel check,
// its lease expires and the coordinator reassigns it, and the process
// exits 130 after reporting what it delivered. Any other failure is
// returned for the command to report in its own style.
func RunWorkerMode(url, fallbackPath string) error {
	ctx, stopSignals := InterruptContext()
	defer stopSignals()
	var fb *exp.Journal
	if fallbackPath != "" {
		j, loaded, err := exp.OpenJournal(fallbackPath)
		if err != nil {
			return fmt.Errorf("bad -journal: %v", err)
		}
		if len(loaded) > 0 {
			Logf("worker: fallback journal already holds %d salvaged cell(s)", len(loaded))
		}
		fb = j
	}
	stats, err := dist.RunWorker(ctx, dist.WorkerConfig{
		Coordinator: url,
		Fallback:    fb,
		Logf:        Logf,
	})
	if fb != nil {
		fb.Close()
	}
	fmt.Printf("worker: ran %d cell(s), delivered %d, salvaged %d (%d RPC retries)\n",
		stats.CellsRun, stats.CellsDelivered, stats.Salvaged, stats.RPCRetries)
	if errors.Is(err, context.Canceled) {
		ExitInterrupted("worker: interrupted; abandoned cell will be reassigned when its lease expires")
	}
	if err != nil {
		return fmt.Errorf("worker: %v", err)
	}
	return nil
}

// CountPanics reports how many of errs wrap a recovered cell panic.
func CountPanics(errs []error) int {
	n := 0
	for _, err := range errs {
		var pe *exp.PanicError
		if errors.As(err, &pe) {
			n++
		}
	}
	return n
}
