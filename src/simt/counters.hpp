#pragma once
// Hardware-event counters collected while a simulated kernel executes.
//
// Every simulated instruction stream increments these; the cost model in
// cost_model.hpp converts them into time. Counters are kept per thread block
// during execution (blocks run in parallel on the host) and reduced after
// the grid finishes, so totals are deterministic.

#include <array>
#include <cstdint>

namespace magicube::simt {

/// Replay-kernel bucket kinds tracked by the per-bucket dispatch counters.
/// The indices are defined by core::PanelKernelId / core::SddmmKernelId
/// (static_asserted there); counters.hpp only fixes the array widths so the
/// simt layer stays below the plan layer.
inline constexpr int kSpmmBucketKinds = 5;
inline constexpr int kSddmmBucketKinds = 3;

struct KernelCounters {
  // Tensor-core mma instruction counts by operand precision.
  std::uint64_t mma_int8 = 0;   // m8n8k16 (2048 integer ops each)
  std::uint64_t mma_int4 = 0;   // m8n8k32 (4096 integer ops each)
  std::uint64_t mma_fp16 = 0;   // m16n8k16 (4096 flops each)

  // Shared memory: requests are warp-level instructions; transactions are
  // bank-serialized cycles (transactions > requests means bank conflicts).
  std::uint64_t smem_load_requests = 0;
  std::uint64_t smem_load_transactions = 0;
  std::uint64_t smem_store_requests = 0;
  std::uint64_t smem_store_transactions = 0;

  // Global memory, counted in 32-byte sectors that reach L2. DRAM traffic is
  // the compulsory subset (first touch of each sector, assuming the working
  // set fits L2 — asserted by the kernels that use this).
  std::uint64_t gmem_load_requests = 0;
  std::uint64_t gmem_load_sectors = 0;
  std::uint64_t gmem_store_requests = 0;
  std::uint64_t gmem_store_sectors = 0;
  std::uint64_t dram_bytes = 0;

  // CUDA-core work: 32-bit integer ALU ops (mask/shift/or of the online
  // transpose, pointer math is excluded as it overlaps), warp shuffles,
  // fp32 ops (softmax, dequantize epilogues), and barriers.
  std::uint64_t alu_ops = 0;
  std::uint64_t shfl_ops = 0;
  std::uint64_t fp32_ops = 0;
  std::uint64_t syncthreads = 0;

  // Replay-kernel bucket dispatch: blocks per specialized panel
  // micro-kernel, recorded analytically by the plan builders and stamped
  // identically by the estimators and the simulated kernels, so every path
  // prices the same dispatch term and operator== compares the census too.
  std::array<std::uint64_t, kSpmmBucketKinds> spmm_bucket_blocks{};
  std::array<std::uint64_t, kSddmmBucketKinds> sddmm_bucket_blocks{};

  KernelCounters& operator+=(const KernelCounters& o) {
    mma_int8 += o.mma_int8;
    mma_int4 += o.mma_int4;
    mma_fp16 += o.mma_fp16;
    smem_load_requests += o.smem_load_requests;
    smem_load_transactions += o.smem_load_transactions;
    smem_store_requests += o.smem_store_requests;
    smem_store_transactions += o.smem_store_transactions;
    gmem_load_requests += o.gmem_load_requests;
    gmem_load_sectors += o.gmem_load_sectors;
    gmem_store_requests += o.gmem_store_requests;
    gmem_store_sectors += o.gmem_store_sectors;
    dram_bytes += o.dram_bytes;
    alu_ops += o.alu_ops;
    shfl_ops += o.shfl_ops;
    fp32_ops += o.fp32_ops;
    syncthreads += o.syncthreads;
    for (int i = 0; i < kSpmmBucketKinds; ++i) {
      spmm_bucket_blocks[static_cast<std::size_t>(i)] +=
          o.spmm_bucket_blocks[static_cast<std::size_t>(i)];
    }
    for (int i = 0; i < kSddmmBucketKinds; ++i) {
      sddmm_bucket_blocks[static_cast<std::size_t>(i)] +=
          o.sddmm_bucket_blocks[static_cast<std::size_t>(i)];
    }
    return *this;
  }

  friend KernelCounters operator+(KernelCounters a, const KernelCounters& b) {
    a += b;
    return a;
  }

  /// Scales every event count by `f` — the "this block repeats f times"
  /// reduction used by the analytic estimators and execution plans (e.g.
  /// one SpMM row's block counted once per column tile).
  KernelCounters& operator*=(std::uint64_t f) {
    mma_int8 *= f;
    mma_int4 *= f;
    mma_fp16 *= f;
    smem_load_requests *= f;
    smem_load_transactions *= f;
    smem_store_requests *= f;
    smem_store_transactions *= f;
    gmem_load_requests *= f;
    gmem_load_sectors *= f;
    gmem_store_requests *= f;
    gmem_store_sectors *= f;
    dram_bytes *= f;
    alu_ops *= f;
    shfl_ops *= f;
    fp32_ops *= f;
    syncthreads *= f;
    for (auto& b : spmm_bucket_blocks) b *= f;
    for (auto& b : sddmm_bucket_blocks) b *= f;
    return *this;
  }

  friend bool operator==(const KernelCounters&,
                         const KernelCounters&) = default;

  std::uint64_t smem_transactions() const {
    return smem_load_transactions + smem_store_transactions;
  }
  std::uint64_t gmem_sectors() const {
    return gmem_load_sectors + gmem_store_sectors;
  }
  /// Bank-conflict overhead factor (1.0 = conflict-free).
  double smem_conflict_factor() const {
    const std::uint64_t req = smem_load_requests + smem_store_requests;
    return req == 0 ? 1.0
                    : static_cast<double>(smem_transactions()) /
                          static_cast<double>(req);
  }
};

}  // namespace magicube::simt
