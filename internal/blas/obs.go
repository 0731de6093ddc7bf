package blas

import "fcma/internal/obs"

// Kernel-block throughput counters, recorded in the process-wide default
// registry (the kernels are value types configured per call site, so
// per-run registries would have to thread through every kernel
// value; block counts are global facts about the process anyway).
// Increments happen once per cache block or work item — thousands of
// floating-point operations each — so the atomic adds are free at the
// scale the ≤2% instrumentation budget cares about.
var (
	obsGemmBlocks     = obs.Default().Counter("blas_gemm_blocks_total")
	obsSyrkBlocks     = obs.Default().Counter("blas_syrk_blocks_total")
	obsBatchSyrkItems = obs.Default().Counter("blas_batch_syrk_items_total")
)
