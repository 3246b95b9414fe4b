// Package cli is the process plumbing the memnet commands share: the
// interrupt context, the profile flags, and the distributed-sweep
// worker mode.
package cli

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// InterruptContext returns a context canceled on the first SIGINT or
// SIGTERM, so in-flight simulations abort within one kernel check
// interval instead of dying mid-write: journal entries already appended
// are fsynced, and the caller gets control back to flush profiles and
// print a partial-results summary before exiting non-zero. A second
// signal exits immediately (status 2) for the impatient.
//
// The returned stop function detaches the handler; call it once the
// run completes so a late ^C behaves normally again.
func InterruptContext() (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr,
			"%v: canceling in-flight runs (journaled results are safe; signal again to exit now)\n", sig)
		cancel()
		if sig2, ok := <-ch; ok {
			fmt.Fprintf(os.Stderr, "%v again: exiting immediately\n", sig2)
			os.Exit(2)
		}
	}()
	return ctx, func() {
		signal.Stop(ch)
		close(ch)
		cancel()
	}
}

// ExitInterrupted is the common interrupted-exit path: print summary,
// flush profiles (os.Exit skips defers) and exit 130, the conventional
// SIGINT status.
func ExitInterrupted(summary string) {
	fmt.Fprintln(os.Stderr, summary)
	StopProfiles()
	os.Exit(130)
}
