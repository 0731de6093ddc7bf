// Command fcma-serve runs FCMA as a durable analysis service: an HTTP
// daemon that accepts voxel-selection jobs, executes them on the
// library's pipeline with per-chunk checkpointing, and survives crashes —
// a killed server restarts, replays its write-ahead journal, and resumes
// every accepted job from its last durable chunk, bit-exact.
//
// The front door applies admission control (bounded queue, per-tenant
// quotas, a memory-budget gate) and answers pressure with 429 +
// Retry-After. SIGTERM drains gracefully: stop admitting, checkpoint
// running jobs at their next chunk boundary, flip /readyz, exit 0.
//
// A failed journal write is a crash: the error is logged and the process
// exits 1. Run it under a supervisor that restarts it on a non-zero exit;
// the restart replays the journal and resumes every job.
//
//	fcma-serve -listen :7800 -dir /var/lib/fcma &
//	curl -XPOST localhost:7800/api/v1/jobs -d '{"synthetic":"face-scene","scale":0.02}'
//	curl localhost:7800/api/v1/jobs/job-00000001
//	curl localhost:7800/api/v1/jobs/job-00000001/result
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fcma/internal/obs"
	"fcma/internal/obs/trace"
	"fcma/internal/safe"
	"fcma/internal/serve"
)

func main() {
	listen := flag.String("listen", ":7800", "HTTP listen address (API + /metrics + /healthz + /readyz + pprof)")
	dir := flag.String("dir", "fcma-serve-state", "state directory (job journal + dataset store)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file (smoke tests use it with -listen :0)")
	queueCap := flag.Int("queue-cap", 16, "max non-terminal jobs; beyond this submissions get 429 + Retry-After")
	tenantCap := flag.Int("tenant-cap", 4, "max non-terminal jobs per tenant")
	memBudget := flag.Int64("mem-budget-mb", 0, "memory-budget admission gate in MiB (0 disables)")
	cacheBudget := flag.Int64("cache-budget-mb", 256, "cache budget in MiB for prepared epoch stacks (each dataset's normalized epochs, what jobs run on)")
	executors := flag.Int("executors", 2, "concurrent job executors")
	chunk := flag.Int("chunk", 64, "voxels per journaled checkpoint chunk")
	workers := flag.Int("workers", 0, "per-job pipeline goroutines (0 = GOMAXPROCS)")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-attempt job execution timeout")
	jobRetries := flag.Int("job-retries", 2, "default extra attempts for a transiently failing job")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for executors to checkpoint")
	bootstrap := obs.BootstrapCLI(flag.CommandLine)
	traceOut := flag.String("trace-out", "", "write a Chrome-trace JSON timeline of every request and job (HTTP, WAL, kernel spans) here on drain")
	flag.Parse()

	logger := bootstrap("fcma-serve")

	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(0)
	}
	// The service records on the process registry, where the svm, blas and
	// safe packages keep their health counters, so /metrics shows them too.
	svc, err := serve.New(serve.Options{
		Dir:         *dir,
		QueueCap:    *queueCap,
		TenantCap:   *tenantCap,
		MemBudget:   *memBudget << 20,
		CacheBudget: *cacheBudget << 20,
		Executors:   *executors,
		ChunkVoxels: *chunk,
		Workers:     *workers,
		JobTimeout:  *jobTimeout,
		JobRetries:  *jobRetries,
		Obs:         obs.Default(),
		Trace:       tracer,
		Log:         logger,
	})
	fail(err)

	// One server carries both planes: the job API and the observability
	// endpoints (readiness comes from the service, so /readyz flips the
	// moment a drain starts). /metrics serves the service's snapshot: the
	// registry with the queue gauges refreshed per scrape.
	mux := obs.NewMux(svc.MetricsSnapshot, svc.Readiness())
	mux.Handle("/api/v1/", svc.Handler())
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ln, err := net.Listen("tcp", *listen)
	fail(err)
	if *addrFile != "" {
		fail(os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644))
	}
	serveErr := make(chan error, 1)
	safe.Go("serve/http", func() error {
		serveErr <- srv.Serve(ln)
		return nil
	}, func(err error) {
		if err != nil {
			logger.Error("http server crashed", "err", err)
		}
	})
	logger.Info("fcma-serve listening", "addr", ln.Addr().String(), "dir", *dir)
	fmt.Printf("fcma-serve: listening on %s (state in %s)\n", ln.Addr().String(), *dir)

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fail(err)
	case err := <-svc.Stopped():
		fail(err)
	}
	stopSignals() // a second signal kills the process the usual way

	// Drain protocol: flip readiness, stop admitting, checkpoint running
	// jobs at their next chunk boundary, then let in-flight HTTP
	// responses finish. Exit 0 on a clean drain.
	logger.Info("signal received; draining")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	if err := svc.Drain(dctx); err != nil {
		logger.Error("drain failed", "err", err)
		os.Exit(1)
	}
	if err := srv.Shutdown(dctx); err != nil {
		logger.Error("http shutdown failed", "err", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		writeTrace(logger, *traceOut, tracer.Drain())
	}
	logger.Info("drained clean; exiting")
}

// writeTrace renders the drained span set as Chrome-trace JSON — one
// Perfetto timeline covering every request root, job span, WAL append,
// and kernel span the server recorded.
func writeTrace(logger *slog.Logger, path string, spans []trace.Span) {
	f, err := os.Create(path)
	fail(err)
	fail(trace.WriteChrome(f, spans))
	fail(f.Close())
	logger.Info("wrote trace", "path", path, "spans", len(spans))
}

func fail(err error) {
	if err != nil {
		slog.Error("fatal", "err", err)
		os.Exit(1)
	}
}
