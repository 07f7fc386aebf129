// Command loosimd serves simulation and figure jobs over HTTP: a bounded
// worker pool runs them on the deterministic pipeline, a content-addressed
// cache (in-memory, or on disk with -cache, shared with `experiments
// -cache`) makes repeated sweep points instant, and /metrics exposes queue
// depth, cache hit rate, per-job KIPS, and aggregate loop delays.
//
//	loosimd -addr :8087 -cache /var/tmp/loosesim-cache
//	curl -s localhost:8087/api/v1/jobs?wait=1 -d '{"bench":"gcc","dra":true}'
//	curl -s localhost:8087/metrics
//
// SIGINT/SIGTERM drain gracefully: submissions stop, queued and running
// jobs finish (up to -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"loosesim/internal/serve"
	"loosesim/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8087", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "queue depth (0 = default)")
	cacheDir := flag.String("cache", "", "persist the result cache in this directory (default: in-memory)")
	drain := flag.Duration("drain", 30*time.Second, "graceful drain budget on SIGINT/SIGTERM")
	traceFile := flag.String("trace", "", "append job lifecycle spans (JSONL) to this file; loostrace renders them")
	traceSeed := flag.Int64("trace-seed", 1, "seed for deterministic trace IDs")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.Parse()

	var store serve.Store
	if *cacheDir != "" {
		var err error
		store, err = serve.NewDirStore(*cacheDir)
		if err != nil {
			log.Fatalf("loosimd: %v", err)
		}
	}
	var tracer *trace.Tracer
	var spanOut *trace.Writer
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("loosimd: %v", err)
		}
		spanOut = trace.NewWriter(f)
		tracer = trace.New(trace.Options{Seed: *traceSeed, Now: time.Now, Sink: spanOut})
		defer func() {
			if err := spanOut.Flush(); err != nil {
				log.Printf("loosimd: trace flush: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Printf("loosimd: trace close: %v", err)
			}
		}()
	}

	srv := serve.New(serve.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		Store:      store,
		Now:        time.Now,
		Tracer:     tracer,
	})

	handler := srv.Handler()
	if *pprofOn {
		// pprof is opt-in: the profiling surface stays off the wire unless
		// the operator asked for it.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	hs := &http.Server{Addr: *addr, Handler: handler}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	// main must not exit when ListenAndServe unblocks on Shutdown — the
	// pool may still be finishing jobs; drained gates the final return.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-sig
		log.Printf("loosimd: draining (budget %s)", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("loosimd: http shutdown: %v", err)
		}
		if err := srv.Drain(ctx); err != nil {
			log.Printf("loosimd: drain: %v", err)
		}
	}()
	log.Printf("loosimd: listening on %s (workers=%d)", *addr, srv.Metrics().Workers)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("loosimd: %v", err)
	}
	<-drained
}
