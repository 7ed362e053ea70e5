// Kernel implementations and runtime dispatch for common/simd.h.
//
// This translation unit is the one sanctioned home for raw SIMD
// intrinsics (enforced by acdn_lint's raw-intrinsics rule). Every vector
// body mirrors its scalar reference operation for operation — same IEEE
// ops, same association order, no FMA — so each lane rounds identically
// and the dispatch choice is invisible in the output. Tail elements
// (lengths not a multiple of the vector width) always run the scalar
// reference.
//
// Per-kernel target matrix (everything else falls back to scalar, which
// is always bit-identical by definition):
//   is_sorted_u64        avx2, neon        (sse2 lacks unsigned 64-bit >)
//   run_starts_u64       sse2, avx2, neon
//   pack_group_target    sse2, avx2, neon
//   base_rtt_batch       sse2, avx2        (fp on neon: see header)
//   haversine_batch      avx2
//   haversine_pairs      avx2

#include "common/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numbers>
#include <string_view>

#include "common/check.h"

#if defined(__x86_64__) || defined(_M_X64)
#define ACDN_SIMD_X86 1
#include <immintrin.h>
#if defined(__GNUC__)
#include <cpuid.h>
#endif
#elif defined(__aarch64__)
#define ACDN_SIMD_NEON_TARGET 1
#include <arm_neon.h>
#endif

namespace acdn::simd {

namespace {

constexpr double kPi = std::numbers::pi;

// ---------------------------------------------------------------------
// Capability detection and dispatch resolution.
// ---------------------------------------------------------------------

#if defined(ACDN_SIMD_X86)
bool detect_avx2() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  if (!osxsave || !avx) return false;
  // xgetbv: the OS must save/restore the ymm state (xmm|ymm bits).
  unsigned lo = 0;
  unsigned hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  if ((lo & 0x6u) != 0x6u) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1u << 5)) != 0;
}
#endif

bool hardware_supports(Dispatch d) {
  switch (d) {
    case Dispatch::kScalar:
      return true;
#if defined(ACDN_SIMD_X86)
    case Dispatch::kSse2:
      return true;  // baseline x86-64
    case Dispatch::kAvx2:
      return detect_avx2();
#endif
#if defined(ACDN_SIMD_NEON_TARGET)
    case Dispatch::kNeon:
      return true;  // baseline aarch64
#endif
    default:
      return false;
  }
}

const std::vector<Dispatch>& available_list() {
  static const std::vector<Dispatch>* list = [] {
    auto* v = new std::vector<Dispatch>{Dispatch::kScalar};
    for (Dispatch d : {Dispatch::kSse2, Dispatch::kAvx2, Dispatch::kNeon}) {
      if (hardware_supports(d)) v->push_back(d);
    }
    return v;
  }();
  return *list;
}

Dispatch resolve_active() {
  Dispatch best = Dispatch::kScalar;
  for (Dispatch d : available_list()) best = std::max(best, d);
  // NEON never outranks scalar incorrectly here: on aarch64 the x86
  // targets are absent and kNeon is the only vector entry.
  const char* env = std::getenv("ACDN_SIMD");
  if (env == nullptr) return best;
  const std::string_view v(env);
  if (v.empty() || v == "auto") return best;
  if (v == "off" || v == "scalar") return Dispatch::kScalar;
  Dispatch want = Dispatch::kScalar;
  if (v == "sse2") {
    want = Dispatch::kSse2;
  } else if (v == "avx2") {
    want = Dispatch::kAvx2;
  } else if (v == "neon") {
    want = Dispatch::kNeon;
  } else {
    return Dispatch::kScalar;  // unknown value: conservative
  }
  if (hardware_supports(want)) return want;
  // Requested target unavailable: the strongest supported target that
  // still ranks below the request (always at least scalar).
  Dispatch fallback = Dispatch::kScalar;
  for (Dispatch a : available_list()) {
    if (a < want) fallback = std::max(fallback, a);
  }
  return fallback;
}

void check_dispatch(Dispatch d) {
  for (Dispatch a : available_list()) {
    if (a == d) return;
  }
  ACDN_CHECK(false) << "SIMD dispatch target '" << name(d)
                    << "' is not available on this machine";
}

// ---------------------------------------------------------------------
// Scalar references. Each *_span form takes a start index so the vector
// paths reuse it verbatim for their tails.
// ---------------------------------------------------------------------

bool is_sorted_u64_scalar(std::span<const std::uint64_t> keys,
                          std::size_t begin) {
  for (std::size_t i = std::max<std::size_t>(begin, 1); i < keys.size(); ++i) {
    if (keys[i - 1] > keys[i]) return false;
  }
  return true;
}

void run_starts_u64_scalar(std::span<const std::uint64_t> keys,
                           std::size_t begin,
                           std::vector<std::uint32_t>& starts) {
  for (std::size_t i = begin; i < keys.size(); ++i) {
    if (keys[i] != keys[i - 1]) {
      starts.push_back(static_cast<std::uint32_t>(i));
    }
  }
}

std::uint32_t pack_group_target_scalar(std::span<const std::uint32_t> group,
                                       std::span<const std::uint8_t> anycast,
                                       std::span<const std::uint32_t> fe,
                                       std::span<std::uint64_t> out,
                                       std::size_t begin) {
  std::uint32_t overflow = 0;
  for (std::size_t i = begin; i < group.size(); ++i) {
    const std::uint32_t m = anycast[i] != 0 ? 0xffffffffu : 0u;
    overflow |= ~m & fe[i] & 0x80000000u;
    const std::uint32_t lo = (m & 0x80000000u) | (~m & fe[i] & 0x7fffffffu);
    // NOLINT-ACDN(unchecked-pack): lo masked to 32 bits; fe overflow goes to the returned mask
    out[i] = (std::uint64_t{group[i]} << 32) | std::uint64_t{lo};
  }
  return overflow;
}

void base_rtt_scalar(std::span<const double> km,
                     std::span<const std::int32_t> as_hops,
                     std::span<const double> last_mile_ms, double km_per_rtt_ms,
                     double per_as_hop_ms, std::span<double> out,
                     std::size_t begin) {
  for (std::size_t i = begin; i < km.size(); ++i) {
    out[i] = km[i] / km_per_rtt_ms +
             per_as_hop_ms * static_cast<double>(as_hops[i]) +
             last_mile_ms[i];
  }
}

void haversine_scalar(double lat0_deg, double lon0_deg,
                      std::span<const double> lat_deg,
                      std::span<const double> lon_deg, double two_radius_km,
                      std::span<double> out_km, std::size_t begin) {
  // cos(phi1) is the same bits every iteration (same input), so hoisting
  // it matches haversine_km's per-call computation exactly.
  const double phi1 = lat0_deg * kPi / 180.0;
  const double cphi1 = std::cos(phi1);
  for (std::size_t i = begin; i < lat_deg.size(); ++i) {
    const double phi2 = lat_deg[i] * kPi / 180.0;
    const double dphi = (lat_deg[i] - lat0_deg) * kPi / 180.0;
    const double dlam = (lon_deg[i] - lon0_deg) * kPi / 180.0;
    const double s = std::sin(dphi / 2.0);
    const double t = std::sin(dlam / 2.0);
    const double h = s * s + cphi1 * std::cos(phi2) * t * t;
    out_km[i] = two_radius_km * std::asin(std::min(1.0, std::sqrt(h)));
  }
}

void haversine_pairs_scalar(std::span<const double> lat_a,
                            std::span<const double> lon_a,
                            std::span<const double> lat_b,
                            std::span<const double> lon_b,
                            double two_radius_km, std::span<double> out_km,
                            std::size_t begin) {
  for (std::size_t i = begin; i < lat_a.size(); ++i) {
    const double phi1 = lat_a[i] * kPi / 180.0;
    const double phi2 = lat_b[i] * kPi / 180.0;
    const double dphi = (lat_b[i] - lat_a[i]) * kPi / 180.0;
    const double dlam = (lon_b[i] - lon_a[i]) * kPi / 180.0;
    const double s = std::sin(dphi / 2.0);
    const double t = std::sin(dlam / 2.0);
    const double h = s * s + std::cos(phi1) * std::cos(phi2) * t * t;
    out_km[i] = two_radius_km * std::asin(std::min(1.0, std::sqrt(h)));
  }
}

// ---------------------------------------------------------------------
// x86 kernels.
// ---------------------------------------------------------------------

#if defined(ACDN_SIMD_X86)

// ---- SSE2 (baseline x86-64: no target attribute needed).

void run_starts_u64_sse2(std::span<const std::uint64_t> keys,
                         std::vector<std::uint32_t>& starts) {
  const std::size_t n = keys.size();
  std::size_t i = 1;
  for (; i + 2 <= n; i += 2) {
    const __m128i prev = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(keys.data() + i - 1));
    const __m128i cur =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys.data() + i));
    // 64-bit equality out of 32-bit compares: both halves must match.
    const __m128i eq32 = _mm_cmpeq_epi32(prev, cur);
    const __m128i eq64 =
        _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    const int mask = _mm_movemask_pd(_mm_castsi128_pd(eq64));
    if (mask == 0x3) continue;
    if ((mask & 1) == 0) starts.push_back(static_cast<std::uint32_t>(i));
    if ((mask & 2) == 0) starts.push_back(static_cast<std::uint32_t>(i + 1));
  }
  run_starts_u64_scalar(keys, i, starts);
}

std::uint32_t pack_group_target_sse2(std::span<const std::uint32_t> group,
                                     std::span<const std::uint8_t> anycast,
                                     std::span<const std::uint32_t> fe,
                                     std::span<std::uint64_t> out) {
  const std::size_t n = group.size();
  const __m128i zero = _mm_setzero_si128();
  const __m128i high = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i low31 = _mm_set1_epi32(0x7fffffff);
  __m128i overflow = zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vg =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(group.data() + i));
    const __m128i vfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(fe.data() + i));
    std::uint32_t abits = 0;
    std::memcpy(&abits, anycast.data() + i, 4);
    __m128i va = _mm_cvtsi32_si128(static_cast<int>(abits));
    va = _mm_unpacklo_epi8(va, zero);
    va = _mm_unpacklo_epi16(va, zero);
    const __m128i vmask = _mm_cmpgt_epi32(va, zero);  // nonzero byte => -1
    overflow = _mm_or_si128(
        overflow, _mm_andnot_si128(vmask, _mm_and_si128(vfe, high)));
    const __m128i vlo =
        _mm_or_si128(_mm_and_si128(vmask, high),
                     _mm_andnot_si128(vmask, _mm_and_si128(vfe, low31)));
    // u64 = group<<32 | lo: little-endian word pairs (lo, group).
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data() + i),
                     _mm_unpacklo_epi32(vlo, vg));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data() + i + 2),
                     _mm_unpackhi_epi32(vlo, vg));
  }
  alignas(16) std::uint32_t acc[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(acc), overflow);
  return (acc[0] | acc[1] | acc[2] | acc[3]) |
         pack_group_target_scalar(group, anycast, fe, out, i);
}

void base_rtt_sse2(std::span<const double> km,
                   std::span<const std::int32_t> as_hops,
                   std::span<const double> last_mile_ms, double km_per_rtt_ms,
                   double per_as_hop_ms, std::span<double> out) {
  const std::size_t n = km.size();
  const __m128d vkmper = _mm_set1_pd(km_per_rtt_ms);
  const __m128d vperhop = _mm_set1_pd(per_as_hop_ms);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d vkm = _mm_loadu_pd(km.data() + i);
    const __m128i vhops32 = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(as_hops.data() + i));
    const __m128d vhops = _mm_cvtepi32_pd(vhops32);
    const __m128d vlm = _mm_loadu_pd(last_mile_ms.data() + i);
    const __m128d r =
        _mm_add_pd(_mm_add_pd(_mm_div_pd(vkm, vkmper),
                              _mm_mul_pd(vperhop, vhops)),
                   vlm);
    _mm_storeu_pd(out.data() + i, r);
  }
  base_rtt_scalar(km, as_hops, last_mile_ms, km_per_rtt_ms, per_as_hop_ms, out,
                  i);
}

// ---- AVX2 (runtime-gated; compiled with a per-function target).

__attribute__((target("avx2"))) bool is_sorted_u64_avx2(
    std::span<const std::uint64_t> keys) {
  const std::size_t n = keys.size();
  if (n < 2) return true;
  const __m256i bias =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  std::size_t i = 1;
  for (; i + 4 <= n; i += 4) {
    const __m256i prev = _mm256_xor_si256(
        _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(keys.data() + i - 1)),
        bias);
    const __m256i cur = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys.data() + i)),
        bias);
    // Unsigned prev > cur via the sign-bias trick.
    if (_mm256_movemask_epi8(_mm256_cmpgt_epi64(prev, cur)) != 0) return false;
  }
  return is_sorted_u64_scalar(keys, i);
}

__attribute__((target("avx2"))) void run_starts_u64_avx2(
    std::span<const std::uint64_t> keys, std::vector<std::uint32_t>& starts) {
  const std::size_t n = keys.size();
  std::size_t i = 1;
  for (; i + 4 <= n; i += 4) {
    const __m256i prev = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys.data() + i - 1));
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys.data() + i));
    const int mask = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(prev, cur)));
    if (mask == 0xf) continue;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask & (1 << lane)) == 0) {
        starts.push_back(
            static_cast<std::uint32_t>(i + static_cast<std::size_t>(lane)));
      }
    }
  }
  run_starts_u64_scalar(keys, i, starts);
}

__attribute__((target("avx2"))) std::uint32_t pack_group_target_avx2(
    std::span<const std::uint32_t> group, std::span<const std::uint8_t> anycast,
    std::span<const std::uint32_t> fe, std::span<std::uint64_t> out) {
  const std::size_t n = group.size();
  const __m128i zero = _mm_setzero_si128();
  const __m128i high = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i low31 = _mm_set1_epi32(0x7fffffff);
  __m128i overflow = zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vg =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(group.data() + i));
    const __m128i vfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(fe.data() + i));
    std::uint32_t abits = 0;
    std::memcpy(&abits, anycast.data() + i, 4);
    __m128i va = _mm_cvtsi32_si128(static_cast<int>(abits));
    va = _mm_unpacklo_epi8(va, zero);
    va = _mm_unpacklo_epi16(va, zero);
    const __m128i vmask = _mm_cmpgt_epi32(va, zero);
    overflow = _mm_or_si128(
        overflow, _mm_andnot_si128(vmask, _mm_and_si128(vfe, high)));
    const __m128i vlo =
        _mm_or_si128(_mm_and_si128(vmask, high),
                     _mm_andnot_si128(vmask, _mm_and_si128(vfe, low31)));
    const __m256i g64 = _mm256_cvtepu32_epi64(vg);
    const __m256i lo64 = _mm256_cvtepu32_epi64(vlo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out.data() + i),
                        _mm256_or_si256(_mm256_slli_epi64(g64, 32), lo64));
  }
  alignas(16) std::uint32_t acc[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(acc), overflow);
  return (acc[0] | acc[1] | acc[2] | acc[3]) |
         pack_group_target_scalar(group, anycast, fe, out, i);
}

__attribute__((target("avx2"))) void base_rtt_avx2(
    std::span<const double> km, std::span<const std::int32_t> as_hops,
    std::span<const double> last_mile_ms, double km_per_rtt_ms,
    double per_as_hop_ms, std::span<double> out) {
  const std::size_t n = km.size();
  const __m256d vkmper = _mm256_set1_pd(km_per_rtt_ms);
  const __m256d vperhop = _mm256_set1_pd(per_as_hop_ms);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vkm = _mm256_loadu_pd(km.data() + i);
    const __m128i vhops32 = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(as_hops.data() + i));
    const __m256d vhops = _mm256_cvtepi32_pd(vhops32);
    const __m256d vlm = _mm256_loadu_pd(last_mile_ms.data() + i);
    const __m256d r =
        _mm256_add_pd(_mm256_add_pd(_mm256_div_pd(vkm, vkmper),
                                    _mm256_mul_pd(vperhop, vhops)),
                      vlm);
    _mm256_storeu_pd(out.data() + i, r);
  }
  base_rtt_scalar(km, as_hops, last_mile_ms, km_per_rtt_ms, per_as_hop_ms, out,
                  i);
}

/// Shared AVX2 haversine body: origin lanes either broadcast (fixed
/// origin) or loaded per lane (pairs). The libm calls run scalar on
/// stored lanes; everything around them is packed mul/add/div/sqrt/min,
/// all correctly rounded per lane.
__attribute__((target("avx2"))) void haversine_core_avx2(
    const double* lat_a, const double* lon_a, bool a_fixed,
    const double* lat_b, const double* lon_b, double two_radius_km,
    double* out_km, std::size_t n, std::size_t* done) {
  const __m256d vpi = _mm256_set1_pd(kPi);
  const __m256d v180 = _mm256_set1_pd(180.0);
  const __m256d v2 = _mm256_set1_pd(2.0);
  const __m256d v1 = _mm256_set1_pd(1.0);
  const __m256d vscale = _mm256_set1_pd(two_radius_km);
  alignas(32) double ls[4];
  alignas(32) double lt[4];
  alignas(32) double lc1[4];
  alignas(32) double lc2[4];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vlat_a =
        a_fixed ? _mm256_set1_pd(lat_a[0]) : _mm256_loadu_pd(lat_a + i);
    const __m256d vlon_a =
        a_fixed ? _mm256_set1_pd(lon_a[0]) : _mm256_loadu_pd(lon_a + i);
    const __m256d vlat_b = _mm256_loadu_pd(lat_b + i);
    const __m256d vlon_b = _mm256_loadu_pd(lon_b + i);
    const __m256d vphi1 = _mm256_div_pd(_mm256_mul_pd(vlat_a, vpi), v180);
    const __m256d vphi2 = _mm256_div_pd(_mm256_mul_pd(vlat_b, vpi), v180);
    const __m256d vdphi = _mm256_div_pd(
        _mm256_mul_pd(_mm256_sub_pd(vlat_b, vlat_a), vpi), v180);
    const __m256d vdlam = _mm256_div_pd(
        _mm256_mul_pd(_mm256_sub_pd(vlon_b, vlon_a), vpi), v180);
    _mm256_store_pd(ls, _mm256_div_pd(vdphi, v2));
    _mm256_store_pd(lt, _mm256_div_pd(vdlam, v2));
    _mm256_store_pd(lc1, vphi1);
    _mm256_store_pd(lc2, vphi2);
    for (int lane = 0; lane < 4; ++lane) {
      ls[lane] = std::sin(ls[lane]);
      lt[lane] = std::sin(lt[lane]);
      lc1[lane] = std::cos(lc1[lane]);
      lc2[lane] = std::cos(lc2[lane]);
    }
    const __m256d vs = _mm256_load_pd(ls);
    const __m256d vt = _mm256_load_pd(lt);
    const __m256d vc1 = _mm256_load_pd(lc1);
    const __m256d vc2 = _mm256_load_pd(lc2);
    // h = s*s + ((c1*c2)*t)*t — haversine_km's association order.
    const __m256d vh = _mm256_add_pd(
        _mm256_mul_pd(vs, vs),
        _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(vc1, vc2), vt), vt));
    // min(1.0, sqrt(h)): minpd(a, 1) returns a when a < 1, else 1 —
    // exactly std::min's (b < a ? b : a) with a = 1.
    const __m256d vclamped = _mm256_min_pd(_mm256_sqrt_pd(vh), v1);
    _mm256_store_pd(ls, vclamped);
    for (double& lane : ls) lane = std::asin(lane);
    _mm256_storeu_pd(out_km + i, _mm256_mul_pd(vscale, _mm256_load_pd(ls)));
  }
  *done = i;
}

#endif  // ACDN_SIMD_X86

// ---------------------------------------------------------------------
// NEON kernels (aarch64 baseline; integer kernels only — see header).
// ---------------------------------------------------------------------

#if defined(ACDN_SIMD_NEON_TARGET)

bool is_sorted_u64_neon(std::span<const std::uint64_t> keys) {
  const std::size_t n = keys.size();
  if (n < 2) return true;
  std::size_t i = 1;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t prev = vld1q_u64(keys.data() + i - 1);
    const uint64x2_t cur = vld1q_u64(keys.data() + i);
    const uint64x2_t gt = vcgtq_u64(prev, cur);
    if (vmaxvq_u32(vreinterpretq_u32_u64(gt)) != 0) return false;
  }
  return is_sorted_u64_scalar(keys, i);
}

void run_starts_u64_neon(std::span<const std::uint64_t> keys,
                         std::vector<std::uint32_t>& starts) {
  const std::size_t n = keys.size();
  std::size_t i = 1;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t prev = vld1q_u64(keys.data() + i - 1);
    const uint64x2_t cur = vld1q_u64(keys.data() + i);
    const uint64x2_t eq = vceqq_u64(prev, cur);
    if (vminvq_u32(vreinterpretq_u32_u64(eq)) == 0xffffffffu) continue;
    if (vgetq_lane_u64(eq, 0) == 0) {
      starts.push_back(static_cast<std::uint32_t>(i));
    }
    if (vgetq_lane_u64(eq, 1) == 0) {
      starts.push_back(static_cast<std::uint32_t>(i + 1));
    }
  }
  run_starts_u64_scalar(keys, i, starts);
}

std::uint32_t pack_group_target_neon(std::span<const std::uint32_t> group,
                                     std::span<const std::uint8_t> anycast,
                                     std::span<const std::uint32_t> fe,
                                     std::span<std::uint64_t> out) {
  const std::size_t n = group.size();
  const uint32x4_t high = vdupq_n_u32(0x80000000u);
  const uint32x4_t low31 = vdupq_n_u32(0x7fffffffu);
  uint32x4_t overflow = vdupq_n_u32(0);
  std::size_t i = 0;
  std::uint32_t mbuf[4];
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t vg = vld1q_u32(group.data() + i);
    const uint32x4_t vfe = vld1q_u32(fe.data() + i);
    for (std::size_t lane = 0; lane < 4; ++lane) {
      mbuf[lane] = anycast[i + lane] != 0 ? 0xffffffffu : 0u;
    }
    const uint32x4_t vmask = vld1q_u32(mbuf);
    overflow = vorrq_u32(overflow, vbicq_u32(vandq_u32(vfe, high), vmask));
    const uint32x4_t vlo = vorrq_u32(vandq_u32(vmask, high),
                                     vbicq_u32(vandq_u32(vfe, low31), vmask));
    const uint64x2_t lo01 = vmovl_u32(vget_low_u32(vlo));
    const uint64x2_t lo23 = vmovl_u32(vget_high_u32(vlo));
    const uint64x2_t g01 = vmovl_u32(vget_low_u32(vg));
    const uint64x2_t g23 = vmovl_u32(vget_high_u32(vg));
    vst1q_u64(out.data() + i, vorrq_u64(vshlq_n_u64(g01, 32), lo01));
    vst1q_u64(out.data() + i + 2, vorrq_u64(vshlq_n_u64(g23, 32), lo23));
  }
  const std::uint32_t acc = vgetq_lane_u32(overflow, 0) |
                            vgetq_lane_u32(overflow, 1) |
                            vgetq_lane_u32(overflow, 2) |
                            vgetq_lane_u32(overflow, 3);
  return acc | pack_group_target_scalar(group, anycast, fe, out, i);
}

#endif  // ACDN_SIMD_NEON_TARGET

}  // namespace

// ---------------------------------------------------------------------
// Public dispatch surface.
// ---------------------------------------------------------------------

const char* name(Dispatch d) {
  switch (d) {
    case Dispatch::kScalar: return "scalar";
    case Dispatch::kSse2: return "sse2";
    case Dispatch::kAvx2: return "avx2";
    case Dispatch::kNeon: return "neon";
  }
  return "?";
}

Dispatch active() {
  // Magic static: resolved exactly once, race-free under C++11 thread-
  // safe initialization; no mutable state thereafter.
  static const Dispatch d = resolve_active();
  return d;
}

std::span<const Dispatch> available() {
  const std::vector<Dispatch>& list = available_list();
  return {list.data(), list.size()};
}

bool is_sorted_u64_at(Dispatch d, std::span<const std::uint64_t> keys) {
  check_dispatch(d);
  switch (d) {
#if defined(ACDN_SIMD_X86)
    case Dispatch::kAvx2:
      return is_sorted_u64_avx2(keys);
#endif
#if defined(ACDN_SIMD_NEON_TARGET)
    case Dispatch::kNeon:
      return is_sorted_u64_neon(keys);
#endif
    default:
      return is_sorted_u64_scalar(keys, 1);
  }
}

bool is_sorted_u64(std::span<const std::uint64_t> keys) {
  return is_sorted_u64_at(active(), keys);
}

void run_starts_u64_at(Dispatch d, std::span<const std::uint64_t> keys,
                       std::vector<std::uint32_t>& starts) {
  check_dispatch(d);
  starts.clear();
  if (keys.empty()) return;
  starts.push_back(0);
  switch (d) {
#if defined(ACDN_SIMD_X86)
    case Dispatch::kSse2:
      run_starts_u64_sse2(keys, starts);
      return;
    case Dispatch::kAvx2:
      run_starts_u64_avx2(keys, starts);
      return;
#endif
#if defined(ACDN_SIMD_NEON_TARGET)
    case Dispatch::kNeon:
      run_starts_u64_neon(keys, starts);
      return;
#endif
    default:
      run_starts_u64_scalar(keys, 1, starts);
      return;
  }
}

void run_starts_u64(std::span<const std::uint64_t> keys,
                    std::vector<std::uint32_t>& starts) {
  run_starts_u64_at(active(), keys, starts);
}

std::uint32_t pack_group_target_at(Dispatch d,
                                   std::span<const std::uint32_t> group,
                                   std::span<const std::uint8_t> anycast,
                                   std::span<const std::uint32_t> fe,
                                   std::span<std::uint64_t> out) {
  check_dispatch(d);
  ACDN_CHECK_EQ(group.size(), anycast.size());
  ACDN_CHECK_EQ(group.size(), fe.size());
  ACDN_CHECK_EQ(group.size(), out.size());
  switch (d) {
#if defined(ACDN_SIMD_X86)
    case Dispatch::kSse2:
      return pack_group_target_sse2(group, anycast, fe, out);
    case Dispatch::kAvx2:
      return pack_group_target_avx2(group, anycast, fe, out);
#endif
#if defined(ACDN_SIMD_NEON_TARGET)
    case Dispatch::kNeon:
      return pack_group_target_neon(group, anycast, fe, out);
#endif
    default:
      return pack_group_target_scalar(group, anycast, fe, out, 0);
  }
}

std::uint32_t pack_group_target(std::span<const std::uint32_t> group,
                                std::span<const std::uint8_t> anycast,
                                std::span<const std::uint32_t> fe,
                                std::span<std::uint64_t> out) {
  return pack_group_target_at(active(), group, anycast, fe, out);
}

void base_rtt_batch_at(Dispatch d, std::span<const double> km,
                       std::span<const std::int32_t> as_hops,
                       std::span<const double> last_mile_ms,
                       double km_per_rtt_ms, double per_as_hop_ms,
                       std::span<double> out) {
  check_dispatch(d);
  ACDN_CHECK_EQ(km.size(), as_hops.size());
  ACDN_CHECK_EQ(km.size(), last_mile_ms.size());
  ACDN_CHECK_EQ(km.size(), out.size());
  switch (d) {
#if defined(ACDN_SIMD_X86)
    case Dispatch::kSse2:
      base_rtt_sse2(km, as_hops, last_mile_ms, km_per_rtt_ms, per_as_hop_ms,
                    out);
      return;
    case Dispatch::kAvx2:
      base_rtt_avx2(km, as_hops, last_mile_ms, km_per_rtt_ms, per_as_hop_ms,
                    out);
      return;
#endif
    default:
      base_rtt_scalar(km, as_hops, last_mile_ms, km_per_rtt_ms, per_as_hop_ms,
                      out, 0);
      return;
  }
}

void base_rtt_batch(std::span<const double> km,
                    std::span<const std::int32_t> as_hops,
                    std::span<const double> last_mile_ms, double km_per_rtt_ms,
                    double per_as_hop_ms, std::span<double> out) {
  base_rtt_batch_at(active(), km, as_hops, last_mile_ms, km_per_rtt_ms,
                    per_as_hop_ms, out);
}

void haversine_batch_at(Dispatch d, double lat0_deg, double lon0_deg,
                        std::span<const double> lat_deg,
                        std::span<const double> lon_deg, double two_radius_km,
                        std::span<double> out_km) {
  check_dispatch(d);
  ACDN_CHECK_EQ(lat_deg.size(), lon_deg.size());
  ACDN_CHECK_EQ(lat_deg.size(), out_km.size());
  switch (d) {
#if defined(ACDN_SIMD_X86)
    case Dispatch::kAvx2: {
      std::size_t done = 0;
      haversine_core_avx2(&lat0_deg, &lon0_deg, /*a_fixed=*/true,
                          lat_deg.data(), lon_deg.data(), two_radius_km,
                          out_km.data(), lat_deg.size(), &done);
      haversine_scalar(lat0_deg, lon0_deg, lat_deg, lon_deg, two_radius_km,
                       out_km, done);
      return;
    }
#endif
    default:
      haversine_scalar(lat0_deg, lon0_deg, lat_deg, lon_deg, two_radius_km,
                       out_km, 0);
      return;
  }
}

void haversine_batch(double lat0_deg, double lon0_deg,
                     std::span<const double> lat_deg,
                     std::span<const double> lon_deg, double two_radius_km,
                     std::span<double> out_km) {
  haversine_batch_at(active(), lat0_deg, lon0_deg, lat_deg, lon_deg,
                     two_radius_km, out_km);
}

void haversine_pairs_batch_at(Dispatch d, std::span<const double> lat_a,
                              std::span<const double> lon_a,
                              std::span<const double> lat_b,
                              std::span<const double> lon_b,
                              double two_radius_km, std::span<double> out_km) {
  check_dispatch(d);
  ACDN_CHECK_EQ(lat_a.size(), lon_a.size());
  ACDN_CHECK_EQ(lat_a.size(), lat_b.size());
  ACDN_CHECK_EQ(lat_a.size(), lon_b.size());
  ACDN_CHECK_EQ(lat_a.size(), out_km.size());
  switch (d) {
#if defined(ACDN_SIMD_X86)
    case Dispatch::kAvx2: {
      std::size_t done = 0;
      haversine_core_avx2(lat_a.data(), lon_a.data(), /*a_fixed=*/false,
                          lat_b.data(), lon_b.data(), two_radius_km,
                          out_km.data(), lat_a.size(), &done);
      haversine_pairs_scalar(lat_a, lon_a, lat_b, lon_b, two_radius_km, out_km,
                             done);
      return;
    }
#endif
    default:
      haversine_pairs_scalar(lat_a, lon_a, lat_b, lon_b, two_radius_km, out_km,
                             0);
      return;
  }
}

void haversine_pairs_batch(std::span<const double> lat_a,
                           std::span<const double> lon_a,
                           std::span<const double> lat_b,
                           std::span<const double> lon_b, double two_radius_km,
                           std::span<double> out_km) {
  haversine_pairs_batch_at(active(), lat_a, lon_a, lat_b, lon_b, two_radius_km,
                           out_km);
}

}  // namespace acdn::simd
