// Command fcma-cluster runs FCMA's master–worker protocol over TCP,
// standing in for the paper's MPI deployment. The master partitions the
// brain into voxel-range tasks and hands them out dynamically; workers run
// the three-stage pipeline and stream scores back.
//
// The cluster is elastic and fault tolerant: the master keeps accepting
// connections after the initial quorum, so workers may join late or rejoin
// after a crash; workers heartbeat and dial with exponential backoff; hung
// workers have their tasks speculatively re-issued (-deadline); and a
// worker-side task failure is retried on another worker instead of
// aborting the run. A master run with -journal survives its own crash:
// restarted with the same -journal, it resumes from the journal's
// completions.
//
// Every node needs the same dataset files (the paper's master distributes
// brain data up front; here the shared filesystem plays that role):
//
//	fcma-gen -dataset face-scene -scale 0.02 -out fs
//	fcma-cluster -role master -listen :7700 -workers 2 -data fs.fcma -epochs fs.epochs &
//	fcma-cluster -role worker -addr host:7700 -data fs.fcma -epochs fs.epochs &
//	fcma-cluster -role worker -addr host:7700 -data fs.fcma -epochs fs.epochs &
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"fcma"
	"fcma/internal/cluster"
	"fcma/internal/core"
	"fcma/internal/corr"
	"fcma/internal/fmri"
	"fcma/internal/mpi"
	"fcma/internal/obs"
	"fcma/internal/obs/trace"
	"fcma/internal/retry"
)

func main() {
	role := flag.String("role", "", `"master" or "worker"`)
	listen := flag.String("listen", ":7700", "master: listen address")
	addr := flag.String("addr", "", "worker: master address")
	workers := flag.Int("workers", 1, "master: number of workers to wait for initially (more may join later)")
	dataPath := flag.String("data", "", "dataset file")
	epochPath := flag.String("epochs", "", "epoch label file")
	taskSize := flag.Int("task-size", 120, "voxels per task (the paper assigns 120)")
	outScores := flag.String("out-scores", "", "master: write the full voxel ranking as CSV")
	journal := flag.String("journal", "", "master: write-ahead journal for crash recovery; a restarted master replays it and never recomputes completed ranges")
	topK := flag.Int("topk", 20, "master: voxels to report")
	retries := flag.Int("retry", 5, "worker: dial attempts with exponential backoff; also rejoin attempts after a lost connection")
	deadline := flag.Duration("deadline", 0, "master: per-task deadline before a slow worker's task is speculatively re-issued (0 disables)")
	acceptTimeout := flag.Duration("accept-timeout", 0, "master: how long to wait for the initial worker quorum (0 waits forever)")
	heartbeatTimeout := flag.Duration("heartbeat-timeout", 10*time.Second, "master: silence before a worker is presumed dead (0 disables)")
	taskRetries := flag.Int("task-retries", 3, "master: failures one task tolerates before the run aborts")
	metricsListen := flag.String("metrics-listen", "", `serve /metrics and /debug/pprof/ on this address, e.g. ":9090" (the master's /metrics merges all workers' shipped snapshots)`)
	traceOut := flag.String("trace-out", "", "master: write the merged cluster timeline (master task spans + every worker's shipped stage spans) as Chrome trace-event JSON to this file")
	bootstrap := obs.BootstrapCLI(flag.CommandLine)
	flag.Parse()

	logger := bootstrap("fcma-cluster", slog.String("role", *role))

	// SIGINT/SIGTERM cancel the run cooperatively: the master broadcasts
	// TagStop and flushes its journal before exiting, a worker aborts its
	// in-flight task. A second signal kills the process the usual way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	d := loadDataset(*dataPath, *epochPath)

	switch *role {
	case "master":
		master, err := mpi.ListenMaster(*listen, *workers+1)
		fail(err)
		defer master.Close()
		master.SetAcceptTimeout(*acceptTimeout)
		fmt.Printf("fcma-cluster: master on %s waiting for %d workers\n", master.Addr(), *workers)
		fail(master.AcceptCtx(ctx))
		cm := &cluster.ClusterMetrics{}
		opts := cluster.MasterOptions{
			TaskDeadline:     *deadline,
			HeartbeatTimeout: *heartbeatTimeout,
			TaskRetries:      *taskRetries,
			Metrics:          cm,
		}
		if *traceOut != "" {
			opts.Trace = trace.New(0)
		}
		if *metricsListen != "" {
			// The master's /metrics merges its own registry with the latest
			// snapshot every worker has shipped — the cluster-wide view.
			srv, err := obs.ServeFunc(*metricsListen, func() obs.Snapshot {
				s := obs.Default().Snapshot()
				s.Merge(cm.Merged())
				return s
			})
			fail(err)
			defer srv.Close()
			logger.Info("serving metrics", "url", "http://"+srv.Addr())
		}
		startTime := time.Now()
		var jn *cluster.Journal
		if *journal != "" {
			jn, err = cluster.OpenJournal(nil, *journal, obs.Default())
			fail(err)
			if jn.Done() > 0 {
				fmt.Printf("fcma-cluster: resuming from journal %s (%d voxels complete)\n", *journal, jn.Done())
			}
			opts.Journal = jn
		}
		scores, err := cluster.RunMasterCtx(ctx, master, d.Voxels(), *taskSize, opts)
		if opts.Trace != nil {
			// Workers' spans ride in their reports, so the master's tracer
			// holds the merged timeline of every report it read.
			writeTrace(logger, *traceOut, opts.Trace.Drain())
		}
		if errors.Is(err, context.Canceled) && jn != nil {
			// os.Exit skips defers, so flush the durable state here — the
			// partial run must be resumable before fail reports cancellation.
			if jerr := jn.Close(); jerr != nil {
				logger.Error("journal flush failed", "err", jerr)
				os.Exit(1)
			}
			fmt.Printf("fcma-cluster: journal flushed to %s (%d voxels complete)\n", *journal, jn.Done())
		}
		fail(err)
		if jn != nil {
			// The run completed; a kept journal would make a rerun resume
			// into an instantly finished state, so retire it.
			fail(jn.Close())
			if err := jn.Remove(); err != nil {
				logger.Warn("could not remove completed journal", "path", *journal, "err", err)
			}
		}
		top := core.TopVoxels(scores, *topK)
		fmt.Printf("analysis complete: %d voxels scored; top %d:\n", len(scores), len(top))
		for _, s := range top {
			fmt.Printf("  voxel %6d  accuracy %.3f\n", s.Voxel, s.Accuracy)
		}
		if *outScores != "" {
			f, err := os.Create(*outScores)
			fail(err)
			fail(fcma.WriteScores(f, core.TopVoxels(scores, 0)))
			fail(f.Close())
			fmt.Printf("wrote %s\n", *outScores)
		}
		reportClusterMetrics(cm, time.Since(startTime))
	case "worker":
		if *addr == "" {
			fail(fmt.Errorf("worker needs -addr"))
		}
		if *metricsListen != "" {
			srv, err := obs.ServeFunc(*metricsListen, obs.Default().Snapshot)
			fail(err)
			defer srv.Close()
			logger.Info("serving metrics", "url", "http://"+srv.Addr())
		}
		stack, err := corr.BuildEpochStackContext(ctx, d, 0)
		fail(err)
		w, err := core.NewWorker(core.Optimized(), stack, nil)
		fail(err)
		// Serve until the master says stop; a lost connection is rejoined
		// (with a fresh rank) as long as the retry budget lasts.
		for attempt := 0; ; attempt++ {
			tr, err := mpi.DialWorkerRetryCtx(ctx, *addr, retry.Policy{Attempts: *retries})
			fail(err)
			logger.Info("worker connected", "rank", tr.Rank(), "size", tr.Size(), "addr", *addr)
			// The worker records a task's spans only when the master traces
			// (its task message carries a span context). Rank is assigned
			// at connect time; RunWorkerCtx re-pins the tracer's pid to it.
			err = cluster.RunWorkerCtx(ctx, tr, w, cluster.WorkerOptions{Trace: trace.New(0)})
			tr.Close()
			if err == nil {
				break
			}
			if errors.Is(err, context.Canceled) {
				fail(err)
			}
			if attempt+1 >= *retries {
				fail(fmt.Errorf("giving up after %d connections: %w", attempt+1, err))
			}
			logger.Warn("connection lost; rejoining", "err", err)
		}
		fmt.Println("fcma-cluster: worker done")
	default:
		fail(fmt.Errorf("need -role master or -role worker"))
	}
}

// writeTrace renders the merged span set as Chrome-trace JSON.
func writeTrace(logger *slog.Logger, path string, spans []trace.Span) {
	f, err := os.Create(path)
	fail(err)
	fail(trace.WriteChrome(f, spans))
	fail(f.Close())
	logger.Info("wrote trace", "path", path, "spans", len(spans))
}

// reportClusterMetrics prints the per-worker task counters and the merged
// cluster-wide view.
func reportClusterMetrics(cm *cluster.ClusterMetrics, elapsed time.Duration) {
	perRank := cm.Workers()
	if len(perRank) > 0 {
		ranks := make([]int, 0, len(perRank))
		for r := range perRank {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		fmt.Println("per-worker task counters:")
		for _, r := range ranks {
			s := perRank[r]
			line := fmt.Sprintf("  rank %2d: %d tasks, %d failures", r,
				s.Counters["worker_tasks_total"], s.Counters["worker_task_failures_total"])
			if h, ok := s.Hists["stage_worker_task_seconds"]; ok && h.Count > 0 && elapsed > 0 {
				line += fmt.Sprintf(", %.1f voxels/sec",
					float64(s.Counters["core_voxels_scored_total"])/elapsed.Seconds())
			}
			fmt.Println(line)
		}
	}
	merged := cm.Merged()
	merged.Merge(obs.Default().Snapshot()) // fold in the master's own counters
	fmt.Printf("cluster totals: %d tasks issued, %d completed, %d retried, %d speculated, %d voxels scored (%d dedup-dropped)\n",
		merged.Counters["cluster_tasks_issued_total"], merged.Counters["cluster_tasks_completed_total"],
		merged.Counters["cluster_tasks_retried_total"], merged.Counters["cluster_tasks_speculated_total"],
		merged.Counters["cluster_voxels_scored_total"], merged.Counters["cluster_dedup_dropped_voxels_total"])
}

func loadDataset(dataPath, epochPath string) *fmri.Dataset {
	if dataPath == "" || epochPath == "" {
		fail(fmt.Errorf("need -data and -epochs (generate them with fcma-gen)"))
	}
	df, err := os.Open(dataPath)
	fail(err)
	defer df.Close()
	ef, err := os.Open(epochPath)
	fail(err)
	defer ef.Close()
	d, err := fmri.Read(df, ef)
	fail(err)
	return d
}

// fail exits on err: 130 after a cancellation (SIGINT/SIGTERM reached the
// run through ctx, wherever it was — accepting, building the epoch stack,
// dialing, in a task), 1 on anything else.
func fail(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) {
		slog.Warn("run cancelled")
		os.Exit(130)
	}
	slog.Error("fatal", "err", err)
	os.Exit(1)
}
