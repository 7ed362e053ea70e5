// Runtime-dispatched SIMD kernels for the measurement pipeline.
//
// Policy: *elementwise kernels only*. Every kernel here computes
// out[i] = f(in[i]) lane by lane in the same IEEE operation order as its
// scalar reference, so the vector and scalar paths are bit-identical and
// golden digests cannot depend on which dispatch ran. Order-sensitive
// floating-point reductions (sums, folds) are explicitly out of scope —
// they stay on the executor's deterministic chunk-ordered fold trees.
// Bitwise reductions (the OR-accumulated validation masks below) are
// exactly associative and therefore allowed.
//
// Bit-identity argument: this repo builds without -march flags, so x86
// code is baseline x86-64 — no FMA instruction exists and a*b+c cannot
// contract; SSE2/AVX2 packed mul/add/div/sqrt round identically to their
// scalar counterparts. Kernels never use FMA intrinsics, and libm calls
// (sin/cos/asin) run scalar per lane on every path. On aarch64, where
// baseline FMA makes scalar contraction compiler-dependent, the
// floating-point kernels route to scalar; NEON covers the integer
// kernels only.
//
// Dispatch is selected once, race-free (C++11 magic static), from CPUID
// capped by the ACDN_SIMD environment variable:
//   ACDN_SIMD=off|scalar  force the scalar reference path
//   ACDN_SIMD=sse2|avx2|neon  cap at that target (clamped to hardware)
//   ACDN_SIMD=auto (or unset)  best supported target
// Each kernel also has a *_at(Dispatch, ...) entry point so tests can
// sweep every compiled-in target against the scalar reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace acdn::simd {

enum class Dispatch : std::uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// Stable lowercase name ("scalar", "sse2", ...), for logs and bench JSON.
const char* name(Dispatch d);

/// The dispatch every auto-entry point uses: best hardware-supported
/// target capped by ACDN_SIMD. Resolved once; thread-safe.
Dispatch active();

/// Every target this binary compiled in *and* this machine can run,
/// scalar first. Bit-identity sweeps iterate this list.
std::span<const Dispatch> available();

// ---- Kernels (auto dispatch). Contracts: spans of equal length; float
// ---- inputs finite (NaN/inf excluded by the callers' data model);
// ---- lengths bounded by UINT32_MAX where u32 indices are produced.

/// True when keys[i] <= keys[i+1] for all i (ascending, duplicates ok).
bool is_sorted_u64(std::span<const std::uint64_t> keys);

/// Appends to `starts` the index of every maximal-run start: 0 (when
/// non-empty) and every i with keys[i] != keys[i-1]. `starts` is cleared
/// first.
void run_starts_u64(std::span<const std::uint64_t> keys,
                    std::vector<std::uint32_t>& starts);

/// Packed aggregation key: out[i] = group[i]<<32 | (anycast[i] ? 1<<31
/// : fe[i]). Returns the OR of all unicast fe[i] high bits — nonzero
/// means some unicast front-end id overflowed the 31-bit field and the
/// caller must fail. Anycast lanes ignore fe[i] entirely (the invalid
/// sentinel 0xFFFFFFFF never reaches the key).
std::uint32_t pack_group_target(std::span<const std::uint32_t> group,
                                std::span<const std::uint8_t> anycast,
                                std::span<const std::uint32_t> fe,
                                std::span<std::uint64_t> out);

/// Batch of RttModel::base_rtt: out[i] = km[i] / km_per_rtt_ms
/// + per_as_hop_ms * as_hops[i] + last_mile_ms[i], in exactly that
/// association order.
void base_rtt_batch(std::span<const double> km,
                    std::span<const std::int32_t> as_hops,
                    std::span<const double> last_mile_ms, double km_per_rtt_ms,
                    double per_as_hop_ms, std::span<double> out);

/// Batch haversine, one fixed origin: out_km[i] = the exact operation
/// sequence of geo/geo_point.h's haversine_km({lat0,lon0},
/// {lat[i],lon[i]}). `two_radius_km` is 2*R (exact: doubling never
/// rounds), kept a parameter so common stays below geo in the layer
/// DAG. Trig runs scalar per lane; the surrounding mul/add/sqrt/min
/// algebra vectorizes bit-identically.
void haversine_batch(double lat0_deg, double lon0_deg,
                     std::span<const double> lat_deg,
                     std::span<const double> lon_deg, double two_radius_km,
                     std::span<double> out_km);

/// Pairwise haversine: out_km[i] = haversine_km({lat_a[i],lon_a[i]},
/// {lat_b[i],lon_b[i]}), both endpoints varying per lane.
void haversine_pairs_batch(std::span<const double> lat_a,
                           std::span<const double> lon_a,
                           std::span<const double> lat_b,
                           std::span<const double> lon_b,
                           double two_radius_km, std::span<double> out_km);

// ---- Explicit-dispatch variants for the bit-identity test sweep. `d`
// ---- must come from available(); anything else fails a check.

bool is_sorted_u64_at(Dispatch d, std::span<const std::uint64_t> keys);
void run_starts_u64_at(Dispatch d, std::span<const std::uint64_t> keys,
                       std::vector<std::uint32_t>& starts);
std::uint32_t pack_group_target_at(Dispatch d,
                                   std::span<const std::uint32_t> group,
                                   std::span<const std::uint8_t> anycast,
                                   std::span<const std::uint32_t> fe,
                                   std::span<std::uint64_t> out);
void base_rtt_batch_at(Dispatch d, std::span<const double> km,
                       std::span<const std::int32_t> as_hops,
                       std::span<const double> last_mile_ms,
                       double km_per_rtt_ms, double per_as_hop_ms,
                       std::span<double> out);
void haversine_batch_at(Dispatch d, double lat0_deg, double lon0_deg,
                        std::span<const double> lat_deg,
                        std::span<const double> lon_deg, double two_radius_km,
                        std::span<double> out_km);
void haversine_pairs_batch_at(Dispatch d, std::span<const double> lat_a,
                              std::span<const double> lon_a,
                              std::span<const double> lat_b,
                              std::span<const double> lon_b,
                              double two_radius_km, std::span<double> out_km);

}  // namespace acdn::simd
