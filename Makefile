# Developer entry points. `make check` is what CI should run: lint
# (gofmt + go vet + leaf boundary), build, and the full test suite. The race
# detector runs as its own CI job via `make test-race`; `make test-short`
# is the fast tier — the soak and other slow tests are gated behind
# -short.

GO ?= go

.PHONY: check lint vet build test test-race test-short bench bench-smoke size size-check fuzz chaos-soak serve-smoke

check: lint build test

# lint is a hard gate of three steps: unformatted files, vet findings
# (asmdecl included: every assembly TEXT symbol's frame and argument
# offsets against its Go declaration; copylocks: no value copy of a
# lock-bearing type), or an entry point that serves, runs or distributes
# an analysis importing one of the experiment-only leaves — the machine
# model (internal/mic/..., internal/report: only cmd/fcma-bench reaches
# them) or the paper's comparators (internal/baseline: only fcma-bench,
# examples and tests do) — all fail the build. Every gate runs even after
# an earlier one failed, so one run names everything wrong. The source
# contracts (raw goroutines, severed contexts, server timeouts, renames,
# metric names, float64 in the float32 kernels) and zero allocation on the
# hot paths are held by tier-1 tests (DESIGN.md §12), not here.
MODEL_FREE = . ./cmd/fcma-run ./cmd/fcma-cluster ./cmd/fcma-serve ./cmd/fcma-gen
lint:
	@status=0; \
	unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:" >&2; \
		echo "$$unformatted" >&2; \
		status=1; \
	fi; \
	$(GO) vet ./... || status=1; \
	for root in $(MODEL_FREE); do \
		leaf=$$($(GO) list -deps $$root | grep -E '^fcma/internal/(mic(/.*)?|report|baseline)$$' | tr '\n' ' '); \
		if [ -n "$$leaf" ]; then \
			echo "boundary: $$root imports an experiment-only leaf (machine model or comparators): $$leaf" >&2; \
			status=1; \
		fi; \
	done; \
	exit $$status

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Quick end-to-end smoke: a tiny fcma-bench run of three model tables,
# plus a traced fcma-run voxel selection that writes a Chrome-trace
# timeline into BENCHDIR (open trace.json in https://ui.perfetto.dev),
# which CI uploads. It measures nothing: speed is judged by the repo
# benchmark (benchmark/, `-compare` against its committed result sets),
# which runs long enough to tell.
BENCHDIR ?= .
bench-smoke:
	@mkdir -p $(BENCHDIR)
	$(GO) run ./cmd/fcma-bench -scale 0.01 table1 table5 table7
	$(GO) run ./cmd/fcma-run -mode select -synthetic face-scene -scale 0.01 \
		-trace-out $(BENCHDIR)/trace.json

# What a reduction PR reports before and after (ROADMAP item 4): non-test
# Go lines under internal/ and cmd/, in the root package, and in the module
# without benchmark/ and testdata/; then the top-level exported declarations of that last set
# (a grouped const/var block counts each exported name); then the assembly
# (.s) lines of each package that has any, and of the module.
NONTEST = -name '*.go' ! -name '*_test.go'
MODULE = . $(NONTEST) ! -path './benchmark/*' ! -path '*/testdata/*'
MODULE_LINES = find $(MODULE) | xargs cat | wc -l
ASM = find . -name '*.s' ! -path './benchmark/*' ! -path '*/testdata/*'
ASM_LINES = $(ASM) | xargs cat | wc -l
EXPORTED = find $(MODULE) | xargs cat | \
	awk '/^(const|var) \($$/ {g=1; next} /^\)/ {g=0} \
		/^(func|type|const|var) [A-Z]/ || (g && /^\t[A-Z]/) {n++} END {print n}'
size:
	@printf 'internal  %6d lines\n' $$(find internal $(NONTEST) | xargs cat | wc -l)
	@printf 'cmd       %6d lines\n' $$(find cmd $(NONTEST) | xargs cat | wc -l)
	@printf 'root      %6d lines\n' $$(find . -maxdepth 1 $(NONTEST) | xargs cat | wc -l)
	@printf 'module    %6d lines\n' $$($(MODULE_LINES))
	@printf 'exported  %6d top-level declarations\n' $$($(EXPORTED))
	@for d in $$($(ASM) | xargs -n1 dirname | sort -u); do \
		printf 'asm %-14s %5d lines\n' $${d#./} $$(cat $$d/*.s | wc -l); \
	done
	@printf 'asm       %6d lines\n' $$($(ASM_LINES))

# The size gate: `module`, `exported` and the assembly total above may not
# pass these ceilings, the values the last reduction PR left. A PR that needs more raises them
# in its own diff, where a reviewer sees the growth; one that shrinks the
# module lowers them.
MAX_MODULE_LINES = 18803
MAX_EXPORTED = 319
MAX_ASM_LINES = 2408
size-check:
	@lines=$$($(MODULE_LINES)); exported=$$($(EXPORTED)); asm=$$($(ASM_LINES)); status=0; \
	if [ $$lines -gt $(MAX_MODULE_LINES) ]; then \
		echo "size-check: module is $$lines non-test lines, ceiling $(MAX_MODULE_LINES)" >&2; status=1; \
	fi; \
	if [ $$exported -gt $(MAX_EXPORTED) ]; then \
		echo "size-check: $$exported exported declarations, ceiling $(MAX_EXPORTED)" >&2; status=1; \
	fi; \
	if [ $$asm -gt $(MAX_ASM_LINES) ]; then \
		echo "size-check: module is $$asm assembly lines, ceiling $(MAX_ASM_LINES)" >&2; status=1; \
	fi; \
	exit $$status

# Long-form crash-recovery soaks behind the chaossoak build tag, both
# under the race detector. First a TCP cluster whose master is
# chaos-killed ten times and resumed from its journal under transport +
# filesystem fault injection (bit-exact completion, zero recomputation);
# then the analysis service killed repeatedly at chunk boundaries under
# filesystem faults (every accepted job completes exactly once, results
# bit-identical to an uninterrupted run). CHAOSDIR receives the cluster
# soak's journal and Chrome-trace artifacts for CI to upload on failure.
CHAOSDIR ?= chaos-out
chaos-soak:
	FCMA_CHAOS_ARTIFACTS=$(CHAOSDIR) $(GO) test -race -tags chaossoak \
		-run 'TestChaosSoakMasterKills|TestMasterKillResumeBitExact' \
		-timeout 2m -v ./internal/cluster/
	$(GO) test -race -tags chaossoak -run TestChaosSoakServerKills \
		-timeout 5m -v ./internal/serve/

# End-to-end smoke of the fcma-serve daemon: real binary, real HTTP
# socket, real SIGTERM. Asserts submit/poll/result over the wire, a clean
# exit-0 drain, and journal removal.
serve-smoke:
	SERVE_SMOKE_OUT=$(SERVEDIR) ./scripts/serve-smoke.sh

# Short native-fuzz pass over the untrusted-input parsers (NIfTI headers,
# epoch files, MPI wire frames, the report body the cluster master decodes
# from a worker and the task body a worker decodes from the master, a
# write-ahead log's bytes on reopen, the service's JSON
# job specs and dataset upload blobs), over
# the vector kernels' bit-for-bit pin to the Go kernels: the blas FMA tiles
# and strips (on every width the host runs), the Go twins' fma32 against
# VFMADD231PS, the norm sweep, the svm sweep, the svm assembly loop over
# a whole fold, the svm seed's class sums and the svm conjugate-gradient
# phase with its mat-vec (skipped on a host without AVX2),
# over the fused stage's pin to the buffer + batched syrk it replaced, and
# over the bytes a restarted master or server replays: the journals' shared
# score-block codec and each journal's record fold. FUZZTIME bounds each
# target's run. The kernel, stage, log-replay, report, task and upload
# targets turn input minimization off: shrinking every coverage-increasing input (up
# to 60 s each by default) would eat the whole budget, and a smaller input is
# no better a witness of equal bits (or, for the log, of equal records).
FUZZTIME ?= 10s

fuzz:
	$(GO) test ./internal/nifti/ -fuzz FuzzNIfTIRead -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fmri/ -fuzz FuzzEpochParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/blas/ -run '^$$' -fuzz FuzzSyrkTileMatchesGo -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/blas/ -run '^$$' -fuzz FuzzGemmStripMatchesGo -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/blas/ -run '^$$' -fuzz FuzzFMA32MatchesHardware -fuzztime $(FUZZTIME)
	$(GO) test ./internal/norm/ -run '^$$' -fuzz FuzzFisherSweepMatchesGo -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/svm/ -run '^$$' -fuzz FuzzSMOSweepMatchesGo -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/svm/ -run '^$$' -fuzz FuzzSolveLoopMatchesGo -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/svm/ -run '^$$' -fuzz FuzzSeedSumsMatchGo -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/svm/ -run '^$$' -fuzz FuzzCGPhaseMatchesGo -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/svm/ -run '^$$' -fuzz FuzzDecideMatchesGo -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/corr/ -run '^$$' -fuzz FuzzFusedMatchesUnfused -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzScoreBlockDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz FuzzJournalApply -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzJournalApply -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mpi/ -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz FuzzMasterReport -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz FuzzWorkerTask -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) -fuzzminimizetime 0
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzJobSpecDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDatasetBlob -fuzztime $(FUZZTIME) -fuzzminimizetime 0
