// Internal seam between the dispatcher (backend.cpp) and the per-ISA
// translation units. avx2.cpp / avx512.cpp are ALWAYS compiled; when the
// toolchain rejects the ISA flags (CMake leaves POE_HAVE_AVX2/POE_HAVE_AVX512
// unset on that source) they compile to a stub returning nullptr. Runtime
// CPU capability is the dispatcher's problem, not these factories'.
#pragma once

#include <algorithm>
#include <cstdint>

#include "kernels/backend.hpp"
#include "modular/modulus.hpp"

namespace poe::kernels {

class Backend;

namespace detail {

/// Products the lazy key-switch accumulator takes between wide Barrett
/// flushes: as many (q-1)^2 terms as a 128-bit sum holds on top of a
/// reduced seed. Every backend flushes on this schedule; for the shipped
/// parameter sets it never triggers.
inline std::size_t ksw_flush_interval(const mod::Modulus& m) {
  using u128 = unsigned __int128;
  const u128 term_max = static_cast<u128>(m.value() - 1) * (m.value() - 1);
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::min<u128>(
             ~static_cast<u128>(0) / term_max - 1, ~std::size_t{0})));
}

/// Prefetch the key pair kKswPrefetchWords past `kw` into L1: its b and a
/// halves, one cache line each (the slab is 64-byte aligned). Reaching past
/// the slab's end is harmless: a prefetch never faults.
inline void ksw_prefetch(const std::uint64_t* kw) {
  const auto ahead = reinterpret_cast<std::uintptr_t>(kw) +
                     kKswPrefetchWords * sizeof(std::uint64_t);
  __builtin_prefetch(reinterpret_cast<const void*>(ahead), 0, 3);
  __builtin_prefetch(
      reinterpret_cast<const void*>(ahead + kKswLanes * sizeof(std::uint64_t)),
      0, 3);
}

/// The scalar key-switch inner product (Backend::ksw_accumulate) over slots
/// [begin, end): all of ScalarBackend's, and the SIMD backends' tail.
inline void ksw_accumulate_slots(std::uint64_t* dst0, std::uint64_t* dst1,
                                 const std::uint64_t* const* dig,
                                 const std::uint64_t* key, std::size_t stride,
                                 std::size_t nd, std::size_t begin,
                                 std::size_t end, const mod::Modulus& m,
                                 bool seed0, bool seed1) {
  using u128 = unsigned __int128;
  const std::size_t flush = ksw_flush_interval(m);
  for (std::size_t idx = begin; idx < end; ++idx) {
    u128 acc0 = seed0 ? dst0[idx] : 0;  // overwrite mode never reads dst
    u128 acc1 = seed1 ? dst1[idx] : 0;
    const std::uint64_t* kw = key + ksw_key_offset(idx, 0, stride);
    // One prefetch per key pair: from the group's first slot only.
    const bool lead = idx % kKswLanes == 0;
    std::size_t since = 0;
    for (std::size_t w = 0; w < nd; ++w, kw += 2 * kKswLanes) {
      if (lead) ksw_prefetch(kw);
      const u128 v = dig[w][idx];
      acc0 += v * kw[0];
      acc1 += v * kw[kKswLanes];
      if (++since == flush) {
        acc0 = m.reduce128_barrett(acc0);
        acc1 = m.reduce128_barrett(acc1);
        since = 0;
      }
    }
    dst0[idx] = m.reduce128_barrett(acc0);
    dst1[idx] = m.reduce128_barrett(acc1);
  }
}

/// The compiled AVX2 implementation, or nullptr when the build lacks it.
/// Does NOT check CPU support — calling into the returned backend on a
/// non-AVX2 CPU is illegal.
const Backend* avx2_backend_impl();

/// Likewise for AVX-512 (F + DQ + VL).
const Backend* avx512_backend_impl();

}  // namespace detail
}  // namespace poe::kernels
