// Command server runs LASSO-as-a-service: an HTTP/JSON front end over
// the repository's communication-avoiding solvers, with a bounded
// worker pool, admission control (429 on queue overflow), per-request
// deadlines threaded through the solver's cancellation consensus, and
// warm-start caches along the regularization path.
//
// Usage:
//
//	server [-addr :8731] [-workers N] [-queue N] [-transport chan|tcp]
//	       [-procs P] [-deadline 15s] [-max-deadline 60s]
//
// Endpoints: POST /fit, POST /predict, GET /stats, GET /healthz.
// SIGINT/SIGTERM drain in-flight solves before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/hpcgo/rcsfista/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "server: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	addr := fs.String("addr", ":8731", "listen address")
	workers := fs.Int("workers", 2, "concurrent solves")
	queue := fs.Int("queue", 16, "admission queue capacity (overflow -> 429)")
	transport := fs.String("transport", "chan", "dist backend solves run on (chan|tcp|auto)")
	procs := fs.Int("procs", 4, "default world size per solve")
	deadline := fs.Duration("deadline", 15*time.Second, "default per-request deadline")
	maxDeadline := fs.Duration("max-deadline", 60*time.Second, "cap on client-requested deadlines")
	datasetCap := fs.Int("dataset-cap", 8, "dataset cache capacity (LRU)")
	pathCap := fs.Int("path-cap", 64, "lambda-path cache entries per path (LRU)")
	maxIter := fs.Int("maxiter", 4000, "default iteration budget per fit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sv := serve.New(serve.Config{
		Workers:         *workers,
		QueueCap:        *queue,
		Transport:       *transport,
		Procs:           *procs,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		DatasetCap:      *datasetCap,
		PathCap:         *pathCap,
		MaxIter:         *maxIter,
	})
	hs := sv.HTTPServer(*addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("server: listening on %s (workers=%d queue=%d transport=%s procs=%d)\n",
		*addr, *workers, *queue, *transport, *procs)

	select {
	case err := <-errc:
		sv.Close()
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight solves hit their
	// deadlines, then release the worker pool.
	fmt.Println("server: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *maxDeadline)
	defer cancel()
	err := hs.Shutdown(shutdownCtx)
	sv.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
