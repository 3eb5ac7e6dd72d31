#pragma once
/// \file stencil_kernel.hpp
/// \brief Plane-wise 7-point stencil kernels shared by every multigrid
/// operator: red-black smoothing, residual evaluation, full-weighting
/// restriction and trilinear prolongation-with-correction.
///
/// All kernels operate on one z-plane of a checked-free strided layout
/// (node (i,j,k) at i + j*nx + k*nx*ny) so callers can fan planes out over
/// the worker pool: the smoother writes only nodes of one red-black color
/// (its reads land on the opposite color), the residual/restriction/
/// prolongation kernels write only their own plane and read other grids.
/// Every kernel therefore produces bitwise-identical results for any plane
/// partitioning.
///
/// Boundary handling is the single source of truth for the whole solver:
/// out-of-range neighbors mirror across the face (homogeneous Neumann,
/// `mirror_index`), Dirichlet nodes are skipped via the `fixed` mask. The
/// diagnostic residual and the smoother use the same code path, so they
/// agree on boundary handling by construction.
///
/// SIMD policy: the stride-1 interior row loop of the smoother and the
/// residual has an AVX2 path (compiled per-function via target attributes,
/// selected at runtime with __builtin_cpu_supports, scalar fallback
/// everywhere else). The vector code uses the same IEEE operations in the
/// same association order as the scalar loop, and the target attribute
/// deliberately excludes FMA: GCC contracts mul+add intrinsics into fused
/// ops whenever the ISA allows it (C++ defaults to -ffp-contract=fast), and
/// one fused rounding would break the bit-identity between the SIMD and
/// scalar paths that the solver's determinism tests assert via
/// `force_scalar`. The ~1 ulp FMA would buy is worth less than
/// reproducibility across every dispatch path.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <type_traits>

// 64-bit only: the AVX-512 row uses _mm_cvtsi64_si128, which does not
// exist in 32-bit mode.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BIOCHIP_STENCIL_X86 1
// GCC 12 reports spurious -Wmaybe-uninitialized from the AVX-512 intrinsic
// expansions (the _mm512_undefined_* idiom); scope the suppression to the
// intrinsic header so real warnings in this file stay visible.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace biochip::field::stencil {

/// Grid extents for a raw strided array.
struct Dims {
  std::size_t nx = 0;
  std::size_t ny = 0;
  std::size_t nz = 0;
  std::size_t size() const { return nx * ny * nz; }
};

/// Mirror (homogeneous Neumann) index for out-of-range neighbors.
inline std::size_t mirror_index(std::ptrdiff_t idx, std::size_t n) {
  if (idx < 0) return 1;
  if (idx >= static_cast<std::ptrdiff_t>(n)) return n - 2;
  return static_cast<std::size_t>(idx);
}

namespace detail {

inline std::atomic<bool>& scalar_override() {
  static std::atomic<bool> forced{false};
  return forced;
}

int calibrate_simd_level(int best_supported);  // defined after the kernels

}  // namespace detail

/// Test hook: force the scalar row loop even when SIMD is available.
inline void force_scalar(bool on) { detail::scalar_override().store(on); }

/// Vector ISA selected at runtime: 0 = scalar, 1 = AVX2, 2 = AVX-512.
/// Every level computes bit-identical results, so the dispatcher is free to
/// pick by *measured speed* rather than by ISA flags: on first use it times
/// a short in-cache sweep per supported level and locks in the fastest
/// (virtualized hosts routinely advertise AVX-512 yet execute 512-bit ops
/// with no throughput advantage). `BIOCHIP_SIMD_LEVEL=<0|1|2>` skips the
/// calibration and caps the level (benchmarking / testing the fallbacks).
inline int simd_level() {
#if BIOCHIP_STENCIL_X86
  static const int level = [] {
    int best = 0;
    if (__builtin_cpu_supports("avx2")) best = 1;
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512bw"))
      best = 2;
    if (const char* cap = std::getenv("BIOCHIP_SIMD_LEVEL")) {
      char* end = nullptr;
      const long c = std::strtol(cap, &end, 10);
      if (end != cap && c >= 0 && c < best) return static_cast<int>(c);
      return best;
    }
    return best > 0 ? detail::calibrate_simd_level(best) : 0;
  }();
  return detail::scalar_override().load() ? 0 : level;
#else
  return 0;
#endif
}

/// True when a vectorized row loop will be used.
inline bool simd_active() { return simd_level() > 0; }

namespace detail {

#if BIOCHIP_STENCIL_X86

__attribute__((target("avx2"))) inline double hmax(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d m = _mm_max_pd(lo, hi);
  return std::max(_mm_cvtsd_f64(m), _mm_cvtsd_f64(_mm_unpackhi_pd(m, m)));
}

/// -1 in the lanes whose `fixed` byte is zero (free nodes), 0 elsewhere.
__attribute__((target("avx2"))) inline __m256i free_mask(const std::uint8_t* f,
                                                         std::size_t i) {
  std::uint32_t bytes;
  __builtin_memcpy(&bytes, f + i, sizeof bytes);
  const __m256i fq = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(bytes)));
  return _mm256_cmpeq_epi64(fq, _mm256_setzero_si256());
}

/// Vectorized interior of one red-black row. Instead of gathering the
/// stride-2 same-color nodes (shuffle-heavy), each 4-wide block loads the
/// row contiguously, computes the relaxation for every lane, and commits
/// only the two same-color, non-fixed lanes — the even/odd half-row trick
/// with the interleave done at the store. Free-interior blocks (the common
/// case) commit with two 64-bit scalar stores; blocks containing Dirichlet
/// nodes take a masked store (vmaskmovpd stalls store-to-load forwarding,
/// so it is kept off the hot path). The opposite-color and Dirichlet lanes
/// are never written. The inactive lanes of the z-neighbor rows are the
/// color that a concurrent sweep of plane k±1 writes, so `SharedZ` (another
/// lane owns a neighbor plane) loads those two rows on the active lanes
/// only; vmaskmovpd costs an extra uop per load, so planes whose neighbors
/// the same lane relaxes keep plain loads. Bit-identical to the scalar
/// relax: same operation order, no FMA (see file header).
template <bool HasRhs, bool HasFixed, bool TrackMax, bool SharedZ>
__attribute__((target("avx2"))) inline std::size_t smooth_row_avx2(
    double* r, const std::uint8_t* f, const double* rjm, const double* rjp,
    const double* rkm, const double* rkp, const double* rr, double h2, double omega,
    std::size_t i, std::size_t ilast, double& max_update) {
  const __m256d inv_six = _mm256_set1_pd(1.0 / 6.0);
  const __m256d omega_v = _mm256_set1_pd(omega);
  const __m256d h2_v = _mm256_set1_pd(h2);
  const __m256d absmask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
  // Blocks start on the active parity, so the active lanes are always 0, 2.
  const __m256i colormask = _mm256_setr_epi64x(-1, 0, -1, 0);
  __m256d maxv = _mm256_setzero_pd();
  for (; i + 4 <= ilast; i += 4) {
    const __m256d center = _mm256_loadu_pd(r + i);
    // Same association order as the scalar loop: ((((l+r)+jm)+jp)+km)+kp.
    __m256d nb = _mm256_add_pd(_mm256_loadu_pd(r + i - 1), _mm256_loadu_pd(r + i + 1));
    nb = _mm256_add_pd(nb, _mm256_loadu_pd(rjm + i));
    nb = _mm256_add_pd(nb, _mm256_loadu_pd(rjp + i));
    if constexpr (SharedZ) {
      nb = _mm256_add_pd(nb, _mm256_maskload_pd(rkm + i, colormask));
      nb = _mm256_add_pd(nb, _mm256_maskload_pd(rkp + i, colormask));
    } else {
      nb = _mm256_add_pd(nb, _mm256_loadu_pd(rkm + i));
      nb = _mm256_add_pd(nb, _mm256_loadu_pd(rkp + i));
    }
    if constexpr (HasRhs) {
      // Register barriers block FMA contraction: this row kernel also gets
      // inlined into the AVX-512 plane clone, whose target enables FMA.
      __m256d load = _mm256_mul_pd(h2_v, _mm256_loadu_pd(rr + i));
      asm("" : "+x"(load));
      nb = _mm256_sub_pd(nb, load);
    }
    __m256d q = _mm256_mul_pd(nb, inv_six);
    asm("" : "+x"(q));
    __m256d delta = _mm256_mul_pd(omega_v, _mm256_sub_pd(q, center));
    asm("" : "+x"(delta));
    const __m256d next = _mm256_add_pd(center, delta);
    if (!HasFixed || (f[i] | f[i + 2]) == 0) {
      if constexpr (TrackMax) {
        const __m256d diff = _mm256_and_pd(absmask, _mm256_sub_pd(next, center));
        maxv = _mm256_max_pd(maxv, _mm256_and_pd(_mm256_castsi256_pd(colormask), diff));
      }
      _mm_storel_pd(r + i, _mm256_castpd256_pd128(next));
      _mm_storel_pd(r + i + 2, _mm256_extractf128_pd(next, 1));
      continue;
    }
    const __m256i smask = _mm256_and_si256(colormask, free_mask(f, i));
    if constexpr (TrackMax) {
      const __m256d diff = _mm256_and_pd(absmask, _mm256_sub_pd(next, center));
      maxv = _mm256_max_pd(maxv, _mm256_and_pd(_mm256_castsi256_pd(smask), diff));
    }
    if (!_mm256_testz_si256(smask, smask)) _mm256_maskstore_pd(r + i, smask, next);
  }
  if constexpr (TrackMax) max_update = std::max(max_update, hmax(maxv));
  return i;
}

/// Vectorized interior of one residual row over contiguous i (the residual
/// is defined on both colors). Writes out[i] = rhs - (Σnb - 6φ)/h² when
/// `out` is non-null and accumulates the update-units diagnostic norm
/// |(Σnb - h²·rhs)/6 - φ|.
/// AVX-512 variant of the row smoother: 8 contiguous lanes per block (4
/// active), native k-register masked stores (which, unlike vmaskmovpd,
/// forward cleanly). Same IEEE operations in the same order as the scalar
/// and AVX2 paths — all three are bit-identical.
template <bool HasRhs, bool HasFixed, bool TrackMax, bool SharedZ>
__attribute__((target("avx512f,avx512dq,avx512vl,avx512bw"))) inline std::size_t
smooth_row_avx512(double* r, const std::uint8_t* f, const double* rjm,
                  const double* rjp, const double* rkm, const double* rkp,
                  const double* rr, double h2, double omega, std::size_t i,
                  std::size_t ilast, double& max_update) {
  const __m512d inv_six = _mm512_set1_pd(1.0 / 6.0);
  const __m512d omega_v = _mm512_set1_pd(omega);
  const __m512d h2_v = _mm512_set1_pd(h2);
  const __m512d absmask =
      _mm512_castsi512_pd(_mm512_set1_epi64(0x7FFFFFFFFFFFFFFFll));
  __m512d maxv = _mm512_setzero_pd();
  for (; i + 8 <= ilast; i += 8) {
    const __m512d center = _mm512_loadu_pd(r + i);
    __m512d nb = _mm512_add_pd(_mm512_loadu_pd(r + i - 1), _mm512_loadu_pd(r + i + 1));
    nb = _mm512_add_pd(nb, _mm512_loadu_pd(rjm + i));
    nb = _mm512_add_pd(nb, _mm512_loadu_pd(rjp + i));
    if constexpr (SharedZ) {
      // Active lanes only from the z-neighbor rows (see smooth_row_avx2).
      nb = _mm512_add_pd(nb, _mm512_maskz_loadu_pd(0x55, rkm + i));
      nb = _mm512_add_pd(nb, _mm512_maskz_loadu_pd(0x55, rkp + i));
    } else {
      nb = _mm512_add_pd(nb, _mm512_loadu_pd(rkm + i));
      nb = _mm512_add_pd(nb, _mm512_loadu_pd(rkp + i));
    }
    if constexpr (HasRhs) {
      // The empty asm pins each product in a register so the compiler
      // cannot contract it with the following add/sub into an FMA: the
      // avx512f target implies FMA, and one fused rounding would break the
      // bit-identity with the scalar and AVX2 paths.
      __m512d load = _mm512_mul_pd(h2_v, _mm512_loadu_pd(rr + i));
      asm("" : "+v"(load));
      nb = _mm512_sub_pd(nb, load);
    }
    __m512d q = _mm512_mul_pd(nb, inv_six);
    asm("" : "+v"(q));
    __m512d delta = _mm512_mul_pd(omega_v, _mm512_sub_pd(q, center));
    asm("" : "+v"(delta));
    const __m512d next = _mm512_add_pd(center, delta);
    std::uint64_t bytes = 0;
    if constexpr (HasFixed) __builtin_memcpy(&bytes, f + i, sizeof bytes);
    if (!HasFixed || (bytes & 0x00FF00FF00FF00FFull) == 0) {
      // No Dirichlet node among the active lanes: commit the 4 same-color
      // lanes with plain 64-bit stores. Masked vector stores cannot
      // store-to-load forward, and the next block's row loads land in the
      // same cache lines, so a masked store here serializes the whole loop.
      if constexpr (TrackMax) {
        const __m512d diff = _mm512_and_pd(absmask, _mm512_sub_pd(next, center));
        maxv = _mm512_mask_max_pd(maxv, 0x55, maxv, diff);
      }
      const __m256d lo = _mm512_castpd512_pd256(next);
      const __m256d hi = _mm512_extractf64x4_pd(next, 1);
      _mm_storel_pd(r + i, _mm256_castpd256_pd128(lo));
      _mm_storel_pd(r + i + 2, _mm256_extractf128_pd(lo, 1));
      _mm_storel_pd(r + i + 4, _mm256_castpd256_pd128(hi));
      _mm_storel_pd(r + i + 6, _mm256_extractf128_pd(hi, 1));
      continue;
    }
    const __mmask8 free =
        _mm512_cmpeq_epi64_mask(_mm512_cvtepu8_epi64(_mm_cvtsi64_si128(
                                    static_cast<long long>(bytes))),
                                _mm512_setzero_si512());
    const __mmask8 active = free & 0x55;  // blocks start on the active parity
    if constexpr (TrackMax) {
      const __m512d diff = _mm512_and_pd(absmask, _mm512_sub_pd(next, center));
      maxv = _mm512_mask_max_pd(maxv, active, maxv, diff);
    }
    _mm512_mask_storeu_pd(r + i, active, next);
  }
  if constexpr (TrackMax)
    max_update = std::max(
        max_update, hmax(_mm256_max_pd(_mm512_castpd512_pd256(maxv),
                                       _mm512_extractf64x4_pd(maxv, 1))));
  return i;
}

template <bool HasRhs, bool HasOut>
__attribute__((target("avx2"))) inline std::size_t residual_row_avx2(
    const double* r, const std::uint8_t* f, const double* rjm, const double* rjp,
    const double* rkm, const double* rkp, const double* rr, double* out, double h2,
    std::size_t i, std::size_t iend, double& max_resid) {
  const __m256d six = _mm256_set1_pd(6.0);
  const __m256d inv_six = _mm256_set1_pd(1.0 / 6.0);
  const __m256d h2_v = _mm256_set1_pd(h2);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d absmask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
  __m256d maxv = _mm256_setzero_pd();
  for (; i + 4 <= iend; i += 4) {
    const __m256d center = _mm256_loadu_pd(r + i);
    __m256d nb = _mm256_add_pd(_mm256_loadu_pd(r + i - 1), _mm256_loadu_pd(r + i + 1));
    nb = _mm256_add_pd(nb, _mm256_loadu_pd(rjm + i));
    nb = _mm256_add_pd(nb, _mm256_loadu_pd(rjp + i));
    nb = _mm256_add_pd(nb, _mm256_loadu_pd(rkm + i));
    nb = _mm256_add_pd(nb, _mm256_loadu_pd(rkp + i));
    const __m256d load = HasRhs ? _mm256_loadu_pd(rr + i) : zero;
    const __m256d keep = _mm256_castsi256_pd(free_mask(f, i));  // -1 where free
    // Diagnostic norm in update units, fixed lanes excluded.
    const __m256d q =
        _mm256_mul_pd(_mm256_sub_pd(nb, _mm256_mul_pd(h2_v, load)), inv_six);
    const __m256d dev = _mm256_and_pd(absmask, _mm256_sub_pd(q, center));
    maxv = _mm256_max_pd(maxv, _mm256_and_pd(keep, dev));
    if constexpr (HasOut) {
      // Physical residual rhs - (Σnb - 6φ)/h², zero at fixed nodes.
      const __m256d ap =
          _mm256_div_pd(_mm256_sub_pd(nb, _mm256_mul_pd(six, center)), h2_v);
      const __m256d res = _mm256_sub_pd(load, ap);
      _mm256_storeu_pd(out + i, _mm256_and_pd(keep, res));
    }
  }
  max_resid = std::max(max_resid, hmax(maxv));
  return i;
}

#endif  // BIOCHIP_STENCIL_X86

// Pins a scalar product in a register so the compiler cannot contract it
// with the following add/sub into an FMA — the per-ISA plane clones below
// compile their scalar edge/tail code under FMA-capable targets, and one
// fused rounding would break the cross-ISA bit-identity.
#if BIOCHIP_STENCIL_X86
#define BIOCHIP_NO_CONTRACT(v) asm("" : "+x"(v))
#else
#define BIOCHIP_NO_CONTRACT(v) (void)(v)
#endif

// One full-plane smoothing loop per ISA, stamped from a single body so each
// clone lives inside its row kernel's target region: the row kernel inlines
// into the j-loop and its constant broadcasts hoist out of it (the call per
// row and 6 broadcasts per row otherwise cost ~20% of a sweep).
// `BIOCHIP_SMOOTH_VEC_TAIL` is the ISA-specific interior-row call chain.
#define BIOCHIP_SMOOTH_PLANE_BODY(...)                                          \
  const std::size_t nx = g.nx, ny = g.ny, nz = g.nz;                            \
  const std::size_t km = (k == 0) ? 1 : k - 1;                                  \
  const std::size_t kp = (k + 1 == nz) ? nz - 2 : k + 1;                        \
  double max_update = 0.0;                                                      \
  for (std::size_t j = 0; j < ny; ++j) {                                        \
    const std::size_t jm = (j == 0) ? 1 : j - 1;                                \
    const std::size_t jp = (j + 1 == ny) ? ny - 2 : j + 1;                      \
    const std::size_t row = (k * ny + j) * nx;                                  \
    double* r = d + row;                                                        \
    const std::uint8_t* f = fixed + row;                                        \
    const double* rr = HasRhs ? rhs + row : nullptr;                            \
    const double* rjm = d + (k * ny + jm) * nx;                                 \
    const double* rjp = d + (k * ny + jp) * nx;                                 \
    const double* rkm = d + (km * ny + j) * nx;                                 \
    const double* rkp = d + (kp * ny + j) * nx;                                 \
    const auto relax = [&](std::size_t i, std::size_t im, std::size_t ip) {     \
      if (HasFixed && f[i]) return;                                             \
      double nb = r[im] + r[ip] + rjm[i] + rjp[i] + rkm[i] + rkp[i];            \
      if constexpr (HasRhs) {                                                   \
        double load = h2 * rr[i];                                               \
        BIOCHIP_NO_CONTRACT(load);                                              \
        nb -= load;                                                             \
      }                                                                         \
      const double old = r[i];                                                  \
      double q = nb * (1.0 / 6.0);                                              \
      BIOCHIP_NO_CONTRACT(q);                                                   \
      double delta = omega * (q - old);                                         \
      BIOCHIP_NO_CONTRACT(delta);                                               \
      const double next = old + delta;                                          \
      r[i] = next;                                                              \
      if constexpr (TrackMax)                                                   \
        max_update = std::max(max_update, std::fabs(next - old));               \
    };                                                                          \
    /* Start i at the right parity for this (j,k) row. */                       \
    std::size_t i = ((j + k) % 2 == static_cast<std::size_t>(color)) ? 0 : 1;   \
    if (i == 0) {                                                               \
      relax(0, 1, 1); /* x-mirror: both neighbors fold onto node 1 */           \
      i = 2;                                                                    \
    }                                                                           \
    const std::size_t ilast = nx - 1;                                           \
    __VA_ARGS__                                                                 \
    for (; i < ilast; i += 2) relax(i, i - 1, i + 1);                           \
    if (i == ilast) relax(ilast, ilast - 1, ilast - 1);                         \
  }                                                                             \
  return max_update;

template <bool HasRhs, bool HasFixed, bool TrackMax>
double smooth_plane_generic(double* d, const std::uint8_t* fixed, const double* rhs,
                            double h2, Dims g, double omega, int color, std::size_t k) {
  BIOCHIP_SMOOTH_PLANE_BODY()
}

#if BIOCHIP_STENCIL_X86
template <bool HasRhs, bool HasFixed, bool TrackMax, bool SharedZ>
__attribute__((target("avx2"))) double smooth_plane_x2(double* d,
                                                       const std::uint8_t* fixed,
                                                       const double* rhs, double h2,
                                                       Dims g, double omega, int color,
                                                       std::size_t k) {
  BIOCHIP_SMOOTH_PLANE_BODY(
      if (nx >= 32) i = smooth_row_avx2<HasRhs, HasFixed, TrackMax, SharedZ>(
          r, f, rjm, rjp, rkm, rkp, rr, h2, omega, i, ilast, max_update);)
}

template <bool HasRhs, bool HasFixed, bool TrackMax, bool SharedZ>
__attribute__((target("avx512f,avx512dq,avx512vl,avx512bw"))) double smooth_plane_x5(
    double* d, const std::uint8_t* fixed, const double* rhs, double h2, Dims g,
    double omega, int color, std::size_t k) {
  BIOCHIP_SMOOTH_PLANE_BODY(
      if (nx >= 32) {
        i = smooth_row_avx512<HasRhs, HasFixed, TrackMax, SharedZ>(
            r, f, rjm, rjp, rkm, rkp, rr, h2, omega, i, ilast, max_update);
        i = smooth_row_avx2<HasRhs, HasFixed, TrackMax, SharedZ>(
            r, f, rjm, rjp, rkm, rkp, rr, h2, omega, i, ilast, max_update);
      })
}
#endif

template <bool HasRhs, bool HasFixed, bool TrackMax, bool SharedZ>
double smooth_plane_impl(double* d, const std::uint8_t* fixed, const double* rhs,
                         double h2, Dims g, double omega, int color, std::size_t k) {
#if BIOCHIP_STENCIL_X86
  const int vec = simd_level();
  if (vec == 2)
    return smooth_plane_x5<HasRhs, HasFixed, TrackMax, SharedZ>(d, fixed, rhs, h2, g,
                                                                omega, color, k);
  if (vec == 1)
    return smooth_plane_x2<HasRhs, HasFixed, TrackMax, SharedZ>(d, fixed, rhs, h2, g,
                                                                omega, color, k);
#endif
  return smooth_plane_generic<HasRhs, HasFixed, TrackMax>(d, fixed, rhs, h2, g, omega,
                                                          color, k);
}

template <bool HasRhs, bool HasOut>
double residual_plane_impl(const double* d, const std::uint8_t* fixed, const double* rhs,
                           double* out, double h2, Dims g, std::size_t k) {
  const std::size_t nx = g.nx, ny = g.ny, nz = g.nz;
  const std::size_t km = (k == 0) ? 1 : k - 1;
  const std::size_t kp = (k + 1 == nz) ? nz - 2 : k + 1;
  double max_resid = 0.0;
#if BIOCHIP_STENCIL_X86
  const bool vec = simd_level() > 0 && nx >= 32;
#endif
  for (std::size_t j = 0; j < ny; ++j) {
    const std::size_t jm = (j == 0) ? 1 : j - 1;
    const std::size_t jp = (j + 1 == ny) ? ny - 2 : j + 1;
    const std::size_t row = (k * ny + j) * nx;
    const double* r = d + row;
    const std::uint8_t* f = fixed + row;
    const double* rr = HasRhs ? rhs + row : nullptr;
    double* ro = HasOut ? out + row : nullptr;
    const double* rjm = d + (k * ny + jm) * nx;
    const double* rjp = d + (k * ny + jp) * nx;
    const double* rkm = d + (km * ny + j) * nx;
    const double* rkp = d + (kp * ny + j) * nx;

    const auto node = [&](std::size_t i, std::size_t im, std::size_t ip) {
      if (f[i]) {
        if constexpr (HasOut) ro[i] = 0.0;
        return;
      }
      const double nb = r[im] + r[ip] + rjm[i] + rjp[i] + rkm[i] + rkp[i];
      const double load = HasRhs ? rr[i] : 0.0;
      max_resid =
          std::max(max_resid, std::fabs((nb - h2 * load) * (1.0 / 6.0) - r[i]));
      if constexpr (HasOut) ro[i] = load - (nb - 6.0 * r[i]) / h2;
    };

    node(0, 1, 1);
    std::size_t i = 1;
    const std::size_t ilast = nx - 1;
#if BIOCHIP_STENCIL_X86
    if (vec)
      i = residual_row_avx2<HasRhs, HasOut>(r, f, rjm, rjp, rkm, rkp, rr, ro, h2, i,
                                            ilast, max_resid);
#endif
    for (; i < ilast; ++i) node(i, i - 1, i + 1);
    if (ilast > 0) node(ilast, ilast - 1, ilast - 1);
  }
  return max_resid;
}

// Times one smoothing pass per supported ISA level over an in-cache slab
// and returns the fastest level. All levels are bit-identical, so this only
// chooses speed; results are unaffected.
inline int calibrate_simd_level(int best_supported) {
  constexpr Dims g{64, 32, 6};
  const std::size_t n = g.size();
  const std::unique_ptr<double[]> buf(new double[n]);
  const std::unique_ptr<std::uint8_t[]> fixed(new std::uint8_t[n]());
  for (std::size_t m = 0; m < n; ++m)
    buf[m] = 1.0 + 1e-3 * static_cast<double>(m % 97);
  const auto pass = [&](int level) {
    for (int color = 0; color < 2; ++color)
      for (std::size_t k = 0; k < g.nz; ++k) {
#if BIOCHIP_STENCIL_X86
        if (level == 2) {
          smooth_plane_x5<false, false, true, false>(buf.get(), fixed.get(), nullptr,
                                                     1.0, g, 1.15, color, k);
          continue;
        }
        if (level == 1) {
          smooth_plane_x2<false, false, true, false>(buf.get(), fixed.get(), nullptr,
                                                     1.0, g, 1.15, color, k);
          continue;
        }
#endif
        smooth_plane_generic<false, false, true>(buf.get(), fixed.get(), nullptr, 1.0, g,
                                                 1.15, color, k);
      }
  };
  int fastest = 0;
  double fastest_time = 1e300;
  for (int level = 0; level <= best_supported; ++level) {
    pass(level);  // warm the path (and the slab) before timing
    double best = 1e300;
    for (int trial = 0; trial < 3; ++trial) {
      // Calibration picks which SIMD level runs, and every level is
      // bit-identical to the scalar kernel by contract (enforced by the
      // forced-scalar CI pass) — timing here cannot reach any result.
      // det-ok: selects among bit-identical kernels only
      const auto t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < 4; ++rep) pass(level);
      const double t =  // det-ok: same calibration block as above
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      best = std::min(best, t);
    }
    if (best < fastest_time) {
      fastest_time = best;
      fastest = level;
    }
  }
  return fastest;
}

}  // namespace detail

/// Relax every node of red-black `color` ((i+j+k)%2) in plane k toward
/// (Σnb - h²·rhs)/6 (rhs may be null for the Laplace case); returns the max
/// absolute node update in the plane. Mirror branches are hoisted out of the
/// row loop exactly as in the reference kernel.
/// `plane_has_fixed = false` asserts no node of the plane is Dirichlet (the
/// caller classified planes once per solve), which removes every mask load
/// and branch from the hot loop. `track_update = false` skips the
/// max-update reduction (for sweeps whose norm nobody reads); it never
/// changes the relaxed values. `shared_z = true` declares that another lane
/// may relax plane k-1 or k+1 at the same time (the first and last plane of
/// a pooled chunk); the vector rows then read only the nodes that such a
/// sweep leaves alone. It never changes the relaxed values either.
inline double smooth_plane(double* d, const std::uint8_t* fixed, const double* rhs,
                           double h2, Dims g, double omega, int color, std::size_t k,
                           bool plane_has_fixed = true, bool track_update = true,
                           bool shared_z = false) {
  const auto call = [&](auto hr, auto hf, auto tm, auto sz) {
    return detail::smooth_plane_impl<hr.value, hf.value, tm.value, sz.value>(
        d, fixed, rhs, h2, g, omega, color, k);
  };
  using T = std::true_type;
  using F = std::false_type;
  const auto with_sz = [&](auto hr, auto hf, auto tm) {
    return shared_z ? call(hr, hf, tm, T{}) : call(hr, hf, tm, F{});
  };
  const auto with_tm = [&](auto hr, auto hf) {
    return track_update ? with_sz(hr, hf, T{}) : with_sz(hr, hf, F{});
  };
  const auto with_hf = [&](auto hr) {
    return plane_has_fixed ? with_tm(hr, T{}) : with_tm(hr, F{});
  };
  return rhs != nullptr ? with_hf(T{}) : with_hf(F{});
}

/// Evaluate the residual over plane k. Returns the plane max of
/// |(Σnb - h²·rhs)/6 - φ| over free nodes (the update-units diagnostic norm,
/// identical to the historical `laplacian_residual` definition). When `out`
/// is non-null, writes the physical-units residual rhs - ∇²φ (zero at fixed
/// nodes) for restriction to the next-coarser level.
inline double residual_plane(const double* d, const std::uint8_t* fixed,
                             const double* rhs, double* out, double h2, Dims g,
                             std::size_t k) {
  if (rhs != nullptr)
    return out != nullptr
               ? detail::residual_plane_impl<true, true>(d, fixed, rhs, out, h2, g, k)
               : detail::residual_plane_impl<true, false>(d, fixed, rhs, nullptr, h2, g, k);
  return out != nullptr
             ? detail::residual_plane_impl<false, true>(d, fixed, nullptr, out, h2, g, k)
             : detail::residual_plane_impl<false, false>(d, fixed, nullptr, nullptr, h2, g,
                                                         k);
}

/// Full-weighting restriction of the fine-grid residual into coarse plane kc
/// (coarse node (I,J,K) is fine node (2I,2J,2K); 27-point kernel with axis
/// weights {1,2,1}/4, mirrored at faces to match the Neumann boundary).
/// Coarse Dirichlet nodes get a zero right-hand side (the coarse-grid error
/// is pinned to zero there).
inline void restrict_plane(const double* fine, Dims f, double* coarse,
                           const std::uint8_t* coarse_fixed, Dims c, std::size_t kc) {
  const auto fidx = [&](std::size_t i, std::size_t j, std::size_t k) {
    return (k * f.ny + j) * f.nx + i;
  };
  const std::size_t fk = 2 * kc;
  const std::size_t kmm = mirror_index(static_cast<std::ptrdiff_t>(fk) - 1, f.nz);
  const std::size_t kpp = mirror_index(static_cast<std::ptrdiff_t>(fk) + 1, f.nz);
  const std::size_t ks[3] = {kmm, fk, kpp};
  const double wz[3] = {0.25, 0.5, 0.25};
  for (std::size_t jc = 0; jc < c.ny; ++jc) {
    const std::size_t fj = 2 * jc;
    const std::size_t js[3] = {mirror_index(static_cast<std::ptrdiff_t>(fj) - 1, f.ny), fj,
                               mirror_index(static_cast<std::ptrdiff_t>(fj) + 1, f.ny)};
    const double wy[3] = {0.25, 0.5, 0.25};
    for (std::size_t ic = 0; ic < c.nx; ++ic) {
      const std::size_t cn = (kc * c.ny + jc) * c.nx + ic;
      if (coarse_fixed[cn]) {
        coarse[cn] = 0.0;
        continue;
      }
      const std::size_t fi = 2 * ic;
      const std::size_t is[3] = {mirror_index(static_cast<std::ptrdiff_t>(fi) - 1, f.nx),
                                 fi,
                                 mirror_index(static_cast<std::ptrdiff_t>(fi) + 1, f.nx)};
      const double wx[3] = {0.25, 0.5, 0.25};
      double acc = 0.0;
      for (int dk = 0; dk < 3; ++dk)
        for (int dj = 0; dj < 3; ++dj)
          for (int di = 0; di < 3; ++di)
            acc += wz[dk] * wy[dj] * wx[di] *
                   fine[fidx(is[di], js[dj], ks[dk])];
      coarse[cn] = acc;
    }
  }
}

/// Trilinear prolongation of the coarse-grid error with correction:
/// phi_fine += P·e over the free nodes of fine plane kf. Coincident nodes
/// copy, in-between nodes average 2/4/8 coarse neighbors.
inline void prolong_correct_plane(const double* coarse, Dims c, double* fine,
                                  const std::uint8_t* fine_fixed, Dims f,
                                  std::size_t kf) {
  const auto cidx = [&](std::size_t i, std::size_t j, std::size_t k) {
    return (k * c.ny + j) * c.nx + i;
  };
  const std::size_t k0 = kf / 2;
  const std::size_t k1 = (kf % 2 != 0) ? k0 + 1 : k0;
  for (std::size_t jf = 0; jf < f.ny; ++jf) {
    const std::size_t j0 = jf / 2;
    const std::size_t j1 = (jf % 2 != 0) ? j0 + 1 : j0;
    for (std::size_t i = 0; i < f.nx; ++i) {
      const std::size_t n = (kf * f.ny + jf) * f.nx + i;
      if (fine_fixed[n]) continue;
      const std::size_t i0 = i / 2;
      const std::size_t i1 = (i % 2 != 0) ? i0 + 1 : i0;
      const double e =
          0.125 * (coarse[cidx(i0, j0, k0)] + coarse[cidx(i1, j0, k0)] +
                   coarse[cidx(i0, j1, k0)] + coarse[cidx(i1, j1, k0)] +
                   coarse[cidx(i0, j0, k1)] + coarse[cidx(i1, j0, k1)] +
                   coarse[cidx(i0, j1, k1)] + coarse[cidx(i1, j1, k1)]);
      fine[n] += e;
    }
  }
}

// ------------------------------------------------- variable-coefficient ----
//
// Galerkin (RAP) coarse operators are 27-point stencils with per-node
// coefficients: restricting the fine operator through full weighting and
// trilinear prolongation lets 1–2-node electrode gaps survive coarsening,
// which the injected-mask 7-point coarse operator cannot represent. The
// kernels below smooth and evaluate residuals for such operators with the
// same plane-wise layout and the same bit-identical SIMD/scalar contract as
// the constant-coefficient kernels above.
//
// Layout: `coef` is structure-of-arrays, coefficient of offset m for node n
// at coef[m * g.size() + n], where m = ((dk+1)*3 + (dj+1))*3 + (di+1) and
// m == 13 is the diagonal. Offsets that would leave the grid have zero
// coefficients by construction (the RAP product never accumulates them), so
// the kernels read a clamped in-range address for those lanes and the
// contribution is an exact ±0.0 on every path. `inv_diag` holds 1/a_diag at
// free nodes and 0.0 at Dirichlet nodes.
//
// NOTE on coloring: a 27-point stencil couples same-color nodes of adjacent
// planes (diagonal offsets), so unlike the 7-point kernels a red-black
// half-sweep is NOT plane-parallel safe on its own. Callers must sequence
// (color, plane-parity) subsweeps — planes of equal parity are >= 2 apart
// and therefore uncoupled — which keeps fan-out bitwise identical to serial.

/// Per-axis offsets of stencil slot m (see layout note above).
inline constexpr int var_off_i(int m) { return m % 3 - 1; }
inline constexpr int var_off_j(int m) { return (m / 3) % 3 - 1; }
inline constexpr int var_off_k(int m) { return m / 9 - 1; }

namespace detail {

// Clamp j/k neighbor indices into range: the matching coefficients are zero
// by construction, so the clamped load only ever contributes an exact ±0.0.
inline std::size_t clamp_index(std::ptrdiff_t idx, std::size_t n) {
  if (idx < 0) return 0;
  if (idx >= static_cast<std::ptrdiff_t>(n)) return n - 1;
  return static_cast<std::size_t>(idx);
}

#if BIOCHIP_STENCIL_X86

/// Vectorized interior of one red-black row of the 27-point var-coeff
/// smoother. Same even/odd half-row scheme as smooth_row_avx2: contiguous
/// 4-lane blocks, relaxation computed for every lane, only the two
/// same-color free lanes committed. `vrow[m]` is the j/k-offset row BASE of
/// slot m (never shifted by the i offset, so no before-the-array pointer is
/// ever formed); lane loads add `i + di` which is >= 0 for every interior i.
/// Accumulation order (m ascending, diagonal skipped, one mul then one add
/// per slot, no FMA) matches the scalar loop exactly.
template <bool TrackMax>
__attribute__((target("avx2"))) inline std::size_t smooth_row_var_avx2(
    double* r, const std::uint8_t* f, const double* const* vrow,
    const double* const* crow, const double* inv_row, const double* rr, double omega,
    std::size_t i, std::size_t ilast, double& max_update) {
  const __m256d omega_v = _mm256_set1_pd(omega);
  const __m256d absmask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
  const __m256i colormask = _mm256_setr_epi64x(-1, 0, -1, 0);
  __m256d maxv = _mm256_setzero_pd();
  for (; i + 4 <= ilast; i += 4) {
    const __m256d center = _mm256_loadu_pd(r + i);
    __m256d acc = _mm256_setzero_pd();
    for (int m = 0; m < 27; ++m) {
      if (m == 13) continue;
      const std::size_t ii =
          static_cast<std::size_t>(static_cast<std::ptrdiff_t>(i) + var_off_i(m));
      __m256d p = _mm256_mul_pd(_mm256_loadu_pd(crow[m] + i),
                                _mm256_loadu_pd(vrow[m] + ii));
      asm("" : "+x"(p));
      acc = _mm256_add_pd(acc, p);
    }
    __m256d q = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(rr + i), acc),
                              _mm256_loadu_pd(inv_row + i));
    asm("" : "+x"(q));
    __m256d delta = _mm256_mul_pd(omega_v, _mm256_sub_pd(q, center));
    asm("" : "+x"(delta));
    const __m256d next = _mm256_add_pd(center, delta);
    if ((f[i] | f[i + 2]) == 0) {
      if constexpr (TrackMax) {
        const __m256d diff = _mm256_and_pd(absmask, _mm256_sub_pd(next, center));
        maxv = _mm256_max_pd(maxv, _mm256_and_pd(_mm256_castsi256_pd(colormask), diff));
      }
      _mm_storel_pd(r + i, _mm256_castpd256_pd128(next));
      _mm_storel_pd(r + i + 2, _mm256_extractf128_pd(next, 1));
      continue;
    }
    const __m256i smask = _mm256_and_si256(colormask, free_mask(f, i));
    if constexpr (TrackMax) {
      const __m256d diff = _mm256_and_pd(absmask, _mm256_sub_pd(next, center));
      maxv = _mm256_max_pd(maxv, _mm256_and_pd(_mm256_castsi256_pd(smask), diff));
    }
    if (!_mm256_testz_si256(smask, smask)) _mm256_maskstore_pd(r + i, smask, next);
  }
  if constexpr (TrackMax) max_update = std::max(max_update, hmax(maxv));
  return i;
}

/// Broadcast-coefficient variant of smooth_row_var_avx2 for rows whose
/// interior nodes all hold the level's constant (uniform) Galerkin stencil:
/// the 27 coefficients broadcast from one cache line instead of streaming 27
/// grid-sized planes, which removes most of the coefficient traffic of a
/// var sweep. Bit-identical to the per-node kernel on such rows: the stored
/// per-node coefficients are exact copies of `uc` (see build_rap), and the
/// accumulation runs in the same order with the same values and no FMA.
template <bool TrackMax>
__attribute__((target("avx2"))) inline std::size_t smooth_row_var_bcast_avx2(
    double* r, const std::uint8_t* f, const double* const* vrow, const double* uc,
    double uinv, const double* rr, double omega, std::size_t i, std::size_t ilast,
    double& max_update) {
  const __m256d omega_v = _mm256_set1_pd(omega);
  const __m256d uinv_v = _mm256_set1_pd(uinv);
  const __m256d absmask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
  const __m256i colormask = _mm256_setr_epi64x(-1, 0, -1, 0);
  __m256d maxv = _mm256_setzero_pd();
  for (; i + 4 <= ilast; i += 4) {
    const __m256d center = _mm256_loadu_pd(r + i);
    __m256d acc = _mm256_setzero_pd();
    for (int m = 0; m < 27; ++m) {
      if (m == 13) continue;
      const std::size_t ii =
          static_cast<std::size_t>(static_cast<std::ptrdiff_t>(i) + var_off_i(m));
      __m256d p = _mm256_mul_pd(_mm256_set1_pd(uc[m]),
                                _mm256_loadu_pd(vrow[m] + ii));
      asm("" : "+x"(p));
      acc = _mm256_add_pd(acc, p);
    }
    __m256d q = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(rr + i), acc), uinv_v);
    asm("" : "+x"(q));
    __m256d delta = _mm256_mul_pd(omega_v, _mm256_sub_pd(q, center));
    asm("" : "+x"(delta));
    const __m256d next = _mm256_add_pd(center, delta);
    if ((f[i] | f[i + 2]) == 0) {
      if constexpr (TrackMax) {
        const __m256d diff = _mm256_and_pd(absmask, _mm256_sub_pd(next, center));
        maxv = _mm256_max_pd(maxv, _mm256_and_pd(_mm256_castsi256_pd(colormask), diff));
      }
      _mm_storel_pd(r + i, _mm256_castpd256_pd128(next));
      _mm_storel_pd(r + i + 2, _mm256_extractf128_pd(next, 1));
      continue;
    }
    const __m256i smask = _mm256_and_si256(colormask, free_mask(f, i));
    if constexpr (TrackMax) {
      const __m256d diff = _mm256_and_pd(absmask, _mm256_sub_pd(next, center));
      maxv = _mm256_max_pd(maxv, _mm256_and_pd(_mm256_castsi256_pd(smask), diff));
    }
    if (!_mm256_testz_si256(smask, smask)) _mm256_maskstore_pd(r + i, smask, next);
  }
  if constexpr (TrackMax) max_update = std::max(max_update, hmax(maxv));
  return i;
}

/// Vectorized interior of one var-coeff residual row (contiguous i, all
/// lanes): out[i] = rhs[i] - Σ_m a_m·e, exact +0.0 at Dirichlet lanes.
__attribute__((target("avx2"))) inline std::size_t residual_row_var_avx2(
    const std::uint8_t* f, const double* const* vrow, const double* const* crow,
    const double* rr, double* out, std::size_t i, std::size_t iend) {
  for (; i + 4 <= iend; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (int m = 0; m < 27; ++m) {
      const std::size_t ii =
          static_cast<std::size_t>(static_cast<std::ptrdiff_t>(i) + var_off_i(m));
      __m256d p = _mm256_mul_pd(_mm256_loadu_pd(crow[m] + i),
                                _mm256_loadu_pd(vrow[m] + ii));
      asm("" : "+x"(p));
      acc = _mm256_add_pd(acc, p);
    }
    const __m256d keep = _mm256_castsi256_pd(free_mask(f, i));  // -1 where free
    const __m256d res = _mm256_sub_pd(_mm256_loadu_pd(rr + i), acc);
    _mm256_storeu_pd(out + i, _mm256_and_pd(keep, res));
  }
  return i;
}

#endif  // BIOCHIP_STENCIL_X86

// One full-plane var-coeff smoothing loop, stamped per ISA like the
// constant-coefficient planes. `BIOCHIP_SMOOTH_VAR_TAIL` is the ISA-specific
// interior-row call.
#define BIOCHIP_SMOOTH_VAR_PLANE_BODY(...)                                       \
  const std::size_t nx = g.nx, ny = g.ny, nz = g.nz, n = g.size();               \
  double max_update = 0.0;                                                       \
  const double* vrow[27];                                                        \
  const double* crow[27];                                                        \
  for (std::size_t j = 0; j < ny; ++j) {                                         \
    const std::size_t row = (k * ny + j) * nx;                                   \
    double* r = d + row;                                                         \
    const std::uint8_t* f = fixed + row;                                         \
    const double* rr = rhs + row;                                                \
    const double* inv_row = inv_diag + row;                                      \
    for (int m = 0; m < 27; ++m) {                                               \
      const std::size_t jj =                                                     \
          clamp_index(static_cast<std::ptrdiff_t>(j) + var_off_j(m), ny);        \
      const std::size_t kk =                                                     \
          clamp_index(static_cast<std::ptrdiff_t>(k) + var_off_k(m), nz);        \
      vrow[m] = d + (kk * ny + jj) * nx;                                         \
      crow[m] = coef + static_cast<std::size_t>(m) * n + row;                    \
    }                                                                            \
    /* im/ip are the i-1/i+1 indices, clamped in range at the row ends          \
       (the matching coefficients are zero there by construction). */           \
    const auto relax = [&](std::size_t i, std::size_t im, std::size_t ip) {      \
      if (f[i]) return;                                                          \
      double acc = 0.0;                                                          \
      for (int m = 0; m < 27; ++m) {                                             \
        if (m == 13) continue;                                                   \
        const int di = var_off_i(m);                                             \
        const std::size_t ii = di < 0 ? im : (di > 0 ? ip : i);                  \
        double p = crow[m][i] * vrow[m][ii];                                     \
        BIOCHIP_NO_CONTRACT(p);                                                  \
        acc += p;                                                                \
      }                                                                          \
      const double old = r[i];                                                   \
      double q = (rr[i] - acc) * inv_row[i];                                     \
      BIOCHIP_NO_CONTRACT(q);                                                    \
      double delta = omega * (q - old);                                          \
      BIOCHIP_NO_CONTRACT(delta);                                                \
      const double next = old + delta;                                           \
      r[i] = next;                                                               \
      if constexpr (TrackMax)                                                    \
        max_update = std::max(max_update, std::fabs(next - old));                \
    };                                                                           \
    std::size_t i = ((j + k) % 2 == static_cast<std::size_t>(color)) ? 0 : 1;    \
    if (i == 0) {                                                                \
      relax(0, 0, nx > 1 ? 1 : 0);                                               \
      i = 2;                                                                     \
    }                                                                            \
    const std::size_t ilast = nx - 1;                                            \
    __VA_ARGS__                                                                  \
    for (; i < ilast; i += 2) relax(i, i - 1, i + 1);                            \
    if (i == ilast) relax(ilast, ilast - 1, ilast);                              \
  }                                                                              \
  return max_update;

template <bool TrackMax>
double smooth_plane_var_generic(double* d, const std::uint8_t* fixed, const double* coef,
                                const double* inv_diag, const double* rhs, Dims g,
                                double omega, int color, std::size_t k) {
  BIOCHIP_SMOOTH_VAR_PLANE_BODY()
}

#if BIOCHIP_STENCIL_X86
template <bool TrackMax>
__attribute__((target("avx2"))) double smooth_plane_var_x2(
    double* d, const std::uint8_t* fixed, const double* coef, const double* inv_diag,
    const double* rhs, Dims g, double omega, int color, std::size_t k) {
  BIOCHIP_SMOOTH_VAR_PLANE_BODY(
      if (nx >= 12) i = smooth_row_var_avx2<TrackMax>(r, f, vrow, crow, inv_row, rr,
                                                      omega, i, ilast, max_update);)
}
#endif

// Broadcast-dispatching var-coeff plane smoother: rows whose interior holds
// the level's constant stencil (per-row `row_uniform` flags derived from
// build_rap's per-node uniformity) relax against the 27 broadcast constants
// `uc` and the scalar `uinv`; other rows (and the i = 0 / i = nx-1 border
// nodes of every row, which mirror folding always de-uniformizes) run the
// per-node path. The stored coefficients of flagged nodes are exact copies
// of `uc` and inv_diag there is the same 1/uc[13] quotient, so the result is
// bit-identical to smooth_plane_var on every plane.
#define BIOCHIP_SMOOTH_VAR_BCAST_PLANE_BODY(...)                                 \
  const std::size_t nx = g.nx, ny = g.ny, nz = g.nz, n = g.size();               \
  double max_update = 0.0;                                                       \
  const double* vrow[27];                                                        \
  const double* crow[27];                                                        \
  for (std::size_t j = 0; j < ny; ++j) {                                         \
    const std::size_t row = (k * ny + j) * nx;                                   \
    double* r = d + row;                                                         \
    const std::uint8_t* f = fixed + row;                                         \
    const double* rr = rhs + row;                                                \
    const double* inv_row = inv_diag + row;                                      \
    const bool urow = row_uniform[k * ny + j] != 0;                              \
    for (int m = 0; m < 27; ++m) {                                               \
      const std::size_t jj =                                                     \
          clamp_index(static_cast<std::ptrdiff_t>(j) + var_off_j(m), ny);        \
      const std::size_t kk =                                                     \
          clamp_index(static_cast<std::ptrdiff_t>(k) + var_off_k(m), nz);        \
      vrow[m] = d + (kk * ny + jj) * nx;                                         \
      crow[m] = coef + static_cast<std::size_t>(m) * n + row;                    \
    }                                                                            \
    const auto relax = [&](std::size_t i, std::size_t im, std::size_t ip) {      \
      if (f[i]) return;                                                          \
      double acc = 0.0;                                                          \
      for (int m = 0; m < 27; ++m) {                                             \
        if (m == 13) continue;                                                   \
        const int di = var_off_i(m);                                             \
        const std::size_t ii = di < 0 ? im : (di > 0 ? ip : i);                  \
        double p = crow[m][i] * vrow[m][ii];                                     \
        BIOCHIP_NO_CONTRACT(p);                                                  \
        acc += p;                                                                \
      }                                                                          \
      const double old = r[i];                                                   \
      double q = (rr[i] - acc) * inv_row[i];                                     \
      BIOCHIP_NO_CONTRACT(q);                                                    \
      double delta = omega * (q - old);                                          \
      BIOCHIP_NO_CONTRACT(delta);                                                \
      const double next = old + delta;                                           \
      r[i] = next;                                                               \
      if constexpr (TrackMax)                                                    \
        max_update = std::max(max_update, std::fabs(next - old));                \
    };                                                                           \
    const auto relax_u = [&](std::size_t i, std::size_t im, std::size_t ip) {    \
      if (f[i]) return;                                                          \
      double acc = 0.0;                                                          \
      for (int m = 0; m < 27; ++m) {                                             \
        if (m == 13) continue;                                                   \
        const int di = var_off_i(m);                                             \
        const std::size_t ii = di < 0 ? im : (di > 0 ? ip : i);                  \
        double p = uc[m] * vrow[m][ii];                                          \
        BIOCHIP_NO_CONTRACT(p);                                                  \
        acc += p;                                                                \
      }                                                                          \
      const double old = r[i];                                                   \
      double q = (rr[i] - acc) * uinv;                                           \
      BIOCHIP_NO_CONTRACT(q);                                                    \
      double delta = omega * (q - old);                                          \
      BIOCHIP_NO_CONTRACT(delta);                                                \
      const double next = old + delta;                                           \
      r[i] = next;                                                               \
      if constexpr (TrackMax)                                                    \
        max_update = std::max(max_update, std::fabs(next - old));                \
    };                                                                           \
    std::size_t i = ((j + k) % 2 == static_cast<std::size_t>(color)) ? 0 : 1;    \
    if (i == 0) {                                                                \
      relax(0, 0, nx > 1 ? 1 : 0);                                               \
      i = 2;                                                                     \
    }                                                                            \
    const std::size_t ilast = nx - 1;                                            \
    __VA_ARGS__                                                                  \
    if (urow) {                                                                  \
      for (; i < ilast; i += 2) relax_u(i, i - 1, i + 1);                        \
    } else {                                                                     \
      for (; i < ilast; i += 2) relax(i, i - 1, i + 1);                          \
    }                                                                            \
    if (i == ilast) relax(ilast, ilast - 1, ilast);                              \
  }                                                                              \
  return max_update;

template <bool TrackMax>
double smooth_plane_var_bcast_generic(double* d, const std::uint8_t* fixed,
                                      const double* coef,
                                      const std::uint8_t* row_uniform, const double* uc,
                                      double uinv, const double* inv_diag,
                                      const double* rhs, Dims g, double omega, int color,
                                      std::size_t k) {
  BIOCHIP_SMOOTH_VAR_BCAST_PLANE_BODY()
}

#if BIOCHIP_STENCIL_X86
template <bool TrackMax>
__attribute__((target("avx2"))) double smooth_plane_var_bcast_x2(
    double* d, const std::uint8_t* fixed, const double* coef,
    const std::uint8_t* row_uniform, const double* uc, double uinv,
    const double* inv_diag, const double* rhs, Dims g, double omega, int color,
    std::size_t k) {
  BIOCHIP_SMOOTH_VAR_BCAST_PLANE_BODY(
      if (nx >= 12) {
        if (urow)
          i = smooth_row_var_bcast_avx2<TrackMax>(r, f, vrow, uc, uinv, rr, omega, i,
                                                  ilast, max_update);
        else
          i = smooth_row_var_avx2<TrackMax>(r, f, vrow, crow, inv_row, rr, omega, i,
                                            ilast, max_update);
      })
}
#endif

#define BIOCHIP_RESIDUAL_VAR_PLANE_BODY(...)                                     \
  const std::size_t nx = g.nx, ny = g.ny, nz = g.nz, n = g.size();               \
  const double* vrow[27];                                                        \
  const double* crow[27];                                                        \
  for (std::size_t j = 0; j < ny; ++j) {                                         \
    const std::size_t row = (k * ny + j) * nx;                                   \
    const std::uint8_t* f = fixed + row;                                         \
    const double* rr = rhs + row;                                                \
    double* ro = out + row;                                                      \
    for (int m = 0; m < 27; ++m) {                                               \
      const std::size_t jj =                                                     \
          clamp_index(static_cast<std::ptrdiff_t>(j) + var_off_j(m), ny);        \
      const std::size_t kk =                                                     \
          clamp_index(static_cast<std::ptrdiff_t>(k) + var_off_k(m), nz);        \
      vrow[m] = d + (kk * ny + jj) * nx;                                         \
      crow[m] = coef + static_cast<std::size_t>(m) * n + row;                    \
    }                                                                            \
    const auto node = [&](std::size_t i, std::size_t im, std::size_t ip) {       \
      if (f[i]) {                                                                \
        ro[i] = 0.0;                                                             \
        return;                                                                  \
      }                                                                          \
      double acc = 0.0;                                                          \
      for (int m = 0; m < 27; ++m) {                                             \
        const int di = var_off_i(m);                                             \
        const std::size_t ii = di < 0 ? im : (di > 0 ? ip : i);                  \
        double p = crow[m][i] * vrow[m][ii];                                     \
        BIOCHIP_NO_CONTRACT(p);                                                  \
        acc += p;                                                                \
      }                                                                          \
      ro[i] = rr[i] - acc;                                                       \
    };                                                                           \
    node(0, 0, nx > 1 ? 1 : 0);                                                  \
    std::size_t i = 1;                                                           \
    const std::size_t ilast = nx - 1;                                            \
    __VA_ARGS__                                                                  \
    for (; i < ilast; ++i) node(i, i - 1, i + 1);                                \
    if (ilast > 0) node(ilast, ilast - 1, ilast);                                \
  }

inline void residual_plane_var_generic(const double* d, const std::uint8_t* fixed,
                                       const double* coef, const double* rhs, double* out,
                                       Dims g, std::size_t k) {
  BIOCHIP_RESIDUAL_VAR_PLANE_BODY()
}

#if BIOCHIP_STENCIL_X86
__attribute__((target("avx2"))) inline void residual_plane_var_x2(
    const double* d, const std::uint8_t* fixed, const double* coef, const double* rhs,
    double* out, Dims g, std::size_t k) {
  BIOCHIP_RESIDUAL_VAR_PLANE_BODY(
      if (nx >= 12) i = residual_row_var_avx2(f, vrow, crow, rr, ro, i, ilast);)
}
#endif

}  // namespace detail

/// Relax every free node of red-black `color` in plane k of a 27-point
/// variable-coefficient (Galerkin) operator toward (rhs - Σ_offdiag)·inv_diag;
/// returns the plane max |update|. Callers must sequence (color, plane
/// parity) subsweeps for plane-parallel determinism (see note above). The
/// AVX2 path is bit-identical to the scalar loop (same order, no FMA).
template <bool TrackMax = true>
inline double smooth_plane_var(double* d, const std::uint8_t* fixed, const double* coef,
                               const double* inv_diag, const double* rhs, Dims g,
                               double omega, int color, std::size_t k) {
#if BIOCHIP_STENCIL_X86
  if (simd_level() > 0)
    return detail::smooth_plane_var_x2<TrackMax>(d, fixed, coef, inv_diag, rhs, g, omega,
                                                 color, k);
#endif
  return detail::smooth_plane_var_generic<TrackMax>(d, fixed, coef, inv_diag, rhs, g,
                                                    omega, color, k);
}

/// smooth_plane_var with the constant-stencil broadcast fast path: rows
/// flagged in `row_uniform` (one flag per (k·ny + j) row: every interior
/// node holds the level's uniform Galerkin stencil, see build_rap) read
/// their coefficients as the 27 broadcast constants `uc` and relax with the
/// scalar `uinv` = 1/uc[13], cutting the 27-stream coefficient traffic that
/// dominates a var sweep on uniform coarse planes. Bit-identical to
/// smooth_plane_var on every plane (the flagged nodes' stored coefficients
/// are exact copies of `uc`); callers keep the same (color, plane-parity)
/// sequencing contract.
template <bool TrackMax = true>
inline double smooth_plane_var_bcast(double* d, const std::uint8_t* fixed,
                                     const double* coef,
                                     const std::uint8_t* row_uniform, const double* uc,
                                     double uinv, const double* inv_diag,
                                     const double* rhs, Dims g, double omega, int color,
                                     std::size_t k) {
#if BIOCHIP_STENCIL_X86
  if (simd_level() > 0)
    return detail::smooth_plane_var_bcast_x2<TrackMax>(
        d, fixed, coef, row_uniform, uc, uinv, inv_diag, rhs, g, omega, color, k);
#endif
  return detail::smooth_plane_var_bcast_generic<TrackMax>(
      d, fixed, coef, row_uniform, uc, uinv, inv_diag, rhs, g, omega, color, k);
}

/// Residual of the 27-point variable-coefficient operator over plane k:
/// out = rhs - A·e (exact 0.0 at Dirichlet nodes), for restriction to the
/// next-coarser level. Reads other planes only; safe to fan over planes.
inline void residual_plane_var(const double* d, const std::uint8_t* fixed,
                               const double* coef, const double* rhs, double* out,
                               Dims g, std::size_t k) {
#if BIOCHIP_STENCIL_X86
  if (simd_level() > 0) {
    detail::residual_plane_var_x2(d, fixed, coef, rhs, out, g, k);
    return;
  }
#endif
  detail::residual_plane_var_generic(d, fixed, coef, rhs, out, g, k);
}

// ------------------------------------------------------ box-clamped kernels

/// smooth_plane restricted to i ∈ [bi0, bi1], j ∈ [bj0, bj1] (inclusive,
/// caller-clamped to the grid) of plane k — the dirty-region correction
/// kernel. Same relax formula, association order, ascending-i traversal and
/// x/y/z mirror handling as smooth_plane, so a box spanning the whole plane
/// reproduces it node for node. Nodes outside the box are read as stencil
/// neighbors but never written, which freezes the box boundary at the
/// caller's cached global solution. Deliberately scalar: windows are a few
/// dozen nodes per side — below the vector kernels' profitable range — and a
/// scalar-only path is identical across SIMD levels with no dispatch.
/// Returns the max absolute node update inside the box-plane.
inline double smooth_plane_box(double* d, const std::uint8_t* fixed, const double* rhs,
                               double h2, Dims g, double omega, int color, std::size_t k,
                               std::size_t bi0, std::size_t bi1, std::size_t bj0,
                               std::size_t bj1) {
  const std::size_t nx = g.nx, ny = g.ny, nz = g.nz;
  const std::size_t km = (k == 0) ? 1 : k - 1;
  const std::size_t kp = (k + 1 == nz) ? nz - 2 : k + 1;
  const std::size_t ilast = nx - 1;
  double max_update = 0.0;
  for (std::size_t j = bj0; j <= bj1; ++j) {
    const std::size_t jm = (j == 0) ? 1 : j - 1;
    const std::size_t jp = (j + 1 == ny) ? ny - 2 : j + 1;
    const std::size_t row = (k * ny + j) * nx;
    double* r = d + row;
    const std::uint8_t* f = fixed + row;
    const double* rr = (rhs != nullptr) ? rhs + row : nullptr;
    const double* rjm = d + (k * ny + jm) * nx;
    const double* rjp = d + (k * ny + jp) * nx;
    const double* rkm = d + (km * ny + j) * nx;
    const double* rkp = d + (kp * ny + j) * nx;
    const auto relax = [&](std::size_t i, std::size_t im, std::size_t ip) {
      if (f[i]) return;
      double nb = r[im] + r[ip] + rjm[i] + rjp[i] + rkm[i] + rkp[i];
      if (rr != nullptr) {
        double load = h2 * rr[i];
        BIOCHIP_NO_CONTRACT(load);
        nb -= load;
      }
      const double old = r[i];
      double q = nb * (1.0 / 6.0);
      BIOCHIP_NO_CONTRACT(q);
      double delta = omega * (q - old);
      BIOCHIP_NO_CONTRACT(delta);
      const double next = old + delta;
      r[i] = next;
      max_update = std::max(max_update, std::fabs(next - old));
    };
    // First node of this row at the right parity for (j, k) and color.
    std::size_t i = bi0 + (((bi0 + j + k) % 2 == static_cast<std::size_t>(color)) ? 0 : 1);
    for (; i <= bi1; i += 2) {
      if (i == 0)
        relax(0, 1, 1);  // x-mirror: both neighbors fold onto node 1
      else if (i == ilast)
        relax(ilast, ilast - 1, ilast - 1);
      else
        relax(i, i - 1, i + 1);
    }
  }
  return max_update;
}

/// residual_plane restricted to the same inclusive box: returns the max of
/// |(Σnb - h²·rhs)/6 - φ| over the box-plane's free nodes (the update-units
/// diagnostic norm, identical to the full-plane definition). Scalar for the
/// same reasons as smooth_plane_box; read-only, safe to fan over planes.
inline double residual_plane_box(const double* d, const std::uint8_t* fixed,
                                 const double* rhs, double h2, Dims g, std::size_t k,
                                 std::size_t bi0, std::size_t bi1, std::size_t bj0,
                                 std::size_t bj1) {
  const std::size_t nx = g.nx, ny = g.ny, nz = g.nz;
  const std::size_t km = (k == 0) ? 1 : k - 1;
  const std::size_t kp = (k + 1 == nz) ? nz - 2 : k + 1;
  const std::size_t ilast = nx - 1;
  double max_resid = 0.0;
  for (std::size_t j = bj0; j <= bj1; ++j) {
    const std::size_t jm = (j == 0) ? 1 : j - 1;
    const std::size_t jp = (j + 1 == ny) ? ny - 2 : j + 1;
    const std::size_t row = (k * ny + j) * nx;
    const double* r = d + row;
    const std::uint8_t* f = fixed + row;
    const double* rr = (rhs != nullptr) ? rhs + row : nullptr;
    const double* rjm = d + (k * ny + jm) * nx;
    const double* rjp = d + (k * ny + jp) * nx;
    const double* rkm = d + (km * ny + j) * nx;
    const double* rkp = d + (kp * ny + j) * nx;
    const auto node = [&](std::size_t i, std::size_t im, std::size_t ip) {
      if (f[i]) return;
      const double nb = r[im] + r[ip] + rjm[i] + rjp[i] + rkm[i] + rkp[i];
      const double load = (rr != nullptr) ? rr[i] : 0.0;
      max_resid =
          std::max(max_resid, std::fabs((nb - h2 * load) * (1.0 / 6.0) - r[i]));
    };
    for (std::size_t i = bi0; i <= bi1; ++i) {
      if (i == 0)
        node(0, 1, 1);
      else if (i == ilast)
        node(ilast, ilast - 1, ilast - 1);
      else
        node(i, i - 1, i + 1);
    }
  }
  return max_resid;
}

}  // namespace biochip::field::stencil
