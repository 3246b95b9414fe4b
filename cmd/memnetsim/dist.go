// Distributed sweep execution: -coordinator serves a -config batch to
// workers over HTTP; -worker (cli.RunWorkerMode) joins a coordinator and
// runs cells until the sweep is done. The merged journal and stdout
// report are byte-identical to a single-process -jobs 1 run of the same
// config.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"memnet/internal/cli"
	"memnet/internal/dist"
	"memnet/internal/exp"
)

// serveBatch runs the batch's cells through a coordinator listening on
// addr instead of the local pool, blocking until every cell is done.
// Results and errors align with specs, exactly like exp.RunSpecsJournaled.
func serveBatch(addr string, lease time.Duration, specs []exp.Spec,
	j *exp.Journal, loaded map[string]exp.Result) ([]exp.Result, []error) {
	c := dist.NewCoordinator(dist.Config{
		LeaseTTL: lease,
		Journal:  j,
		Loaded:   loaded,
		Logf:     cli.Logf,
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("bad -coordinator: %v", err)
	}
	// The resolved address goes to stderr so scripts binding ":0" can
	// discover the port.
	fmt.Fprintf(os.Stderr, "coordinator: listening on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)

	batch := c.Submit(specs)
	c.Close()
	results, errs, err := batch.Wait(context.Background())
	if err != nil {
		log.Fatalf("coordinator: %v", err)
	}
	if err := c.Err(); err != nil {
		log.Fatalf("coordinator: %v", err)
	}
	if !c.DrainWorkers(0) {
		fmt.Fprintf(os.Stderr, "coordinator: drain timed out; some workers may exit with a connection error\n")
	}
	st := c.Stats()
	fmt.Fprintf(os.Stderr,
		"coordinator: %d cells done (%d restored, %d failed), %d leases expired, %d duplicate, %d late\n",
		st.Done, st.Restored, st.Failed, st.LeasesExpired, st.DuplicateResults, st.LateResults)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)
	return results, errs
}
