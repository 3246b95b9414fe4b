// Distributed sweep execution: -coordinator serves every experiment's
// cell sweep to workers over HTTP; -worker (cli.RunWorkerMode) joins a
// coordinator and runs cells until the whole session is done. Rendered
// figures and the journal are byte-identical to a single-process -jobs 1
// run.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"memnet/internal/cli"
	"memnet/internal/dist"
	"memnet/internal/exp"
)

// distCoordinator owns the HTTP listener and coordinator for one
// experiments session. Each experiment submits its uncached cells as
// one batch; workers poll-wait between batches and drain after close().
type distCoordinator struct {
	c   *dist.Coordinator
	srv *http.Server
}

// startCoordinator brings up the coordinator on addr. It takes over the
// journal: in distributed mode the coordinator owns journaling (the
// runner must not also append).
func startCoordinator(addr string, lease time.Duration, j *exp.Journal, loaded map[string]exp.Result) *distCoordinator {
	c := dist.NewCoordinator(dist.Config{
		LeaseTTL: lease,
		Journal:  j,
		Loaded:   loaded,
		Logf:     cli.Logf,
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -coordinator: %v\n", err)
		os.Exit(1)
	}
	// The resolved address goes to stderr so scripts binding ":0" can
	// discover the port.
	fmt.Fprintf(os.Stderr, "coordinator: listening on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)
	return &distCoordinator{c: c, srv: srv}
}

// sweep runs one experiment's uncached work list through the workers
// and returns results and errors aligned with specs.
func (d *distCoordinator) sweep(specs []exp.Spec) ([]exp.Result, []error) {
	batch := d.c.Submit(specs)
	results, errs, err := batch.Wait(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "coordinator: %v\n", err)
		os.Exit(1)
	}
	if err := d.c.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "coordinator: %v\n", err)
		os.Exit(1)
	}
	return results, errs
}

// close declares the session over — the next claim from each worker
// answers "done" — waits for the workers to drain, and reports
// coordinator stats.
func (d *distCoordinator) close() {
	d.c.Close()
	if !d.c.DrainWorkers(0) {
		fmt.Fprintf(os.Stderr, "coordinator: drain timed out; some workers may exit with a connection error\n")
	}
	st := d.c.Stats()
	fmt.Fprintf(os.Stderr,
		"coordinator: %d cells done (%d restored, %d failed), %d leases expired, %d duplicate, %d late\n",
		st.Done, st.Restored, st.Failed, st.LeasesExpired, st.DuplicateResults, st.LateResults)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
}
