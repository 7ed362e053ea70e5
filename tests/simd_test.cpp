// Bit-identity sweep for common/simd.h.
//
// The SIMD policy (docs/ARCHITECTURE.md, "Batch kernels & SIMD policy")
// requires every vector kernel to be *bit-identical* to its scalar
// reference: golden digests must not depend on which dispatch target
// ran. This suite runs every kernel on every compiled-in dispatch
// target over randomized and edge-case inputs — boundary lanes,
// non-multiple-of-width lengths — and compares raw bits, not values
// (EXPECT_EQ on doubles would let -0.0 == +0.0 slip through). NaN/inf
// are excluded by the kernels' contracts and never generated here.

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "geo/geo_point.h"
#include "latency/rtt_model.h"

namespace acdn {
namespace {

using simd::Dispatch;

/// Lengths that cover empty inputs, sub-width tails, exact widths for
/// 2/4-lane kernels, width+1 boundaries, and a bulk run.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 1001};

void expect_bits_eq(std::span<const double> got, std::span<const double> want,
                    const char* what, Dispatch d) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " lane " << i << " differs on " << simd::name(d)
        << ": " << got[i] << " vs " << want[i];
  }
}

TEST(SimdDispatch, ActiveIsAvailable) {
  bool found = false;
  for (Dispatch d : simd::available()) {
    if (d == simd::active()) found = true;
  }
  EXPECT_TRUE(found) << "active() must come from available()";
  // Scalar is always first so sweeps can use index 0 as the reference.
  ASSERT_FALSE(simd::available().empty());
  EXPECT_EQ(simd::available().front(), Dispatch::kScalar);
}

TEST(SimdSweep, IsSortedU64) {
  Rng rng(11);
  for (const std::size_t n : kLengths) {
    // Sorted (with duplicates), and one violation planted at every
    // position — this covers violations in boundary lanes and tails.
    std::vector<std::uint64_t> keys(n);
    std::uint64_t v = 0;
    for (auto& k : keys) k = (v += rng.next_u64() % 3);
    for (std::size_t flip = 0; flip <= n; ++flip) {
      std::vector<std::uint64_t> probe = keys;
      if (flip < n && flip > 0) probe[flip] = probe[flip - 1] / 2;
      const bool want = simd::is_sorted_u64_at(
          Dispatch::kScalar, std::span<const std::uint64_t>(probe));
      for (Dispatch d : simd::available()) {
        EXPECT_EQ(simd::is_sorted_u64_at(
                      d, std::span<const std::uint64_t>(probe)),
                  want)
            << "n=" << n << " flip=" << flip << " on " << simd::name(d);
      }
    }
  }
}

TEST(SimdSweep, RunStartsU64) {
  Rng rng(12);
  for (const std::size_t n : kLengths) {
    // Duplicate-heavy sorted keys: realistic group-by input shape.
    std::vector<std::uint64_t> keys(n);
    std::uint64_t v = 1000;
    for (auto& k : keys) k = (v += (rng.next_u64() % 4 == 0) ? 1 : 0);
    std::vector<std::uint32_t> want;
    simd::run_starts_u64_at(Dispatch::kScalar,
                            std::span<const std::uint64_t>(keys), want);
    for (Dispatch d : simd::available()) {
      std::vector<std::uint32_t> got;
      simd::run_starts_u64_at(d, std::span<const std::uint64_t>(keys), got);
      EXPECT_EQ(got, want) << "n=" << n << " on " << simd::name(d);
    }
  }
}

TEST(SimdSweep, PackGroupTarget) {
  Rng rng(13);
  for (const std::size_t n : kLengths) {
    std::vector<std::uint32_t> group(n);
    std::vector<std::uint8_t> anycast(n);
    std::vector<std::uint32_t> fe(n);
    for (std::size_t i = 0; i < n; ++i) {
      group[i] = static_cast<std::uint32_t>(rng.next_u64());
      anycast[i] = static_cast<std::uint8_t>(rng.next_u64() % 2);
      // Mostly valid 31-bit ids; every 7th lane tests overflow
      // detection, every anycast lane carries the invalid sentinel the
      // real column holds (and must be ignored).
      fe[i] = static_cast<std::uint32_t>(rng.next_u64()) & 0x7fffffffu;
      if (i % 7 == 3) fe[i] |= 0x80000000u;
      if (anycast[i] != 0) fe[i] = 0xffffffffu;
    }
    std::vector<std::uint64_t> want(n);
    const std::uint32_t want_overflow = simd::pack_group_target_at(
        Dispatch::kScalar, group, anycast, fe, std::span<std::uint64_t>(want));
    for (Dispatch d : simd::available()) {
      std::vector<std::uint64_t> got(n);
      const std::uint32_t overflow = simd::pack_group_target_at(
          d, group, anycast, fe, std::span<std::uint64_t>(got));
      EXPECT_EQ(got, want) << "n=" << n << " on " << simd::name(d);
      EXPECT_EQ(overflow, want_overflow)
          << "n=" << n << " on " << simd::name(d);
    }
  }
}

TEST(SimdSweep, BaseRttBatch) {
  Rng rng(14);
  for (const std::size_t n : kLengths) {
    std::vector<double> km(n);
    std::vector<std::int32_t> hops(n);
    std::vector<double> last_mile(n);
    for (std::size_t i = 0; i < n; ++i) {
      km[i] = rng.uniform(0.0, 20'000.0);
      hops[i] = static_cast<std::int32_t>(rng.uniform_int(0, 12));
      last_mile[i] = rng.uniform(0.0, 60.0);
    }
    std::vector<double> want(n);
    simd::base_rtt_batch_at(Dispatch::kScalar, km, hops, last_mile, 100.0,
                            0.5, std::span<double>(want));
    for (Dispatch d : simd::available()) {
      std::vector<double> got(n);
      simd::base_rtt_batch_at(d, km, hops, last_mile, 100.0, 0.5,
                              std::span<double>(got));
      expect_bits_eq(got, want, "base_rtt", d);
    }
  }
}

constexpr double kTwoEarthRadiusKm = 2.0 * 6371.0088;

TEST(SimdSweep, HaversineBatch) {
  Rng rng(16);
  for (const std::size_t n : kLengths) {
    std::vector<double> lat(n);
    std::vector<double> lon(n);
    for (std::size_t i = 0; i < n; ++i) {
      lat[i] = rng.uniform(-90.0, 90.0);
      lon[i] = rng.uniform(-180.0, 180.0);
    }
    // Edge lanes: the antipode (clamp path, h ~ 1) and the origin
    // itself (h = 0).
    if (n >= 2) {
      lat[0] = -48.8566;
      lon[0] = 2.3522 - 180.0;
      lat[1] = 48.8566;
      lon[1] = 2.3522;
    }
    std::vector<double> want(n);
    simd::haversine_batch_at(Dispatch::kScalar, 48.8566, 2.3522, lat, lon,
                             kTwoEarthRadiusKm, std::span<double>(want));
    for (Dispatch d : simd::available()) {
      std::vector<double> got(n);
      simd::haversine_batch_at(d, 48.8566, 2.3522, lat, lon,
                               kTwoEarthRadiusKm, std::span<double>(got));
      expect_bits_eq(got, want, "haversine", d);
    }
  }
}

TEST(SimdSweep, HaversinePairsBatch) {
  Rng rng(17);
  for (const std::size_t n : kLengths) {
    std::vector<double> lat_a(n);
    std::vector<double> lon_a(n);
    std::vector<double> lat_b(n);
    std::vector<double> lon_b(n);
    for (std::size_t i = 0; i < n; ++i) {
      lat_a[i] = rng.uniform(-90.0, 90.0);
      lon_a[i] = rng.uniform(-180.0, 180.0);
      lat_b[i] = rng.uniform(-90.0, 90.0);
      lon_b[i] = rng.uniform(-180.0, 180.0);
    }
    std::vector<double> want(n);
    simd::haversine_pairs_batch_at(Dispatch::kScalar, lat_a, lon_a, lat_b,
                                   lon_b, kTwoEarthRadiusKm,
                                   std::span<double>(want));
    for (Dispatch d : simd::available()) {
      std::vector<double> got(n);
      simd::haversine_pairs_batch_at(d, lat_a, lon_a, lat_b, lon_b,
                                     kTwoEarthRadiusKm,
                                     std::span<double>(got));
      expect_bits_eq(got, want, "haversine_pairs", d);
    }
  }
}

// ---- Scalar references must equal the models they replace, bit for
// ---- bit: this is the link that keeps golden digests safe.

TEST(SimdReference, HaversineMatchesGeoPoint) {
  Rng rng(18);
  const GeoPoint origin{37.7749, -122.4194};
  const std::size_t n = 257;
  std::vector<double> lat(n);
  std::vector<double> lon(n);
  for (std::size_t i = 0; i < n; ++i) {
    lat[i] = rng.uniform(-90.0, 90.0);
    lon[i] = rng.uniform(-180.0, 180.0);
  }
  std::vector<double> batch(n);
  simd::haversine_batch(origin.lat_deg, origin.lon_deg, lat, lon,
                        kTwoEarthRadiusKm, std::span<double>(batch));
  for (std::size_t i = 0; i < n; ++i) {
    const Kilometers direct = haversine_km(origin, GeoPoint{lat[i], lon[i]});
    ASSERT_EQ(std::bit_cast<std::uint64_t>(batch[i]),
              std::bit_cast<std::uint64_t>(direct))
        << "batch haversine diverged from haversine_km at " << i;
  }
}

TEST(SimdReference, BaseRttMatchesRttModel) {
  Rng rng(19);
  RttConfig config;
  const RttModel model(config);
  const std::size_t n = 129;
  std::vector<double> km(n);
  std::vector<std::int32_t> hops(n);
  std::vector<double> last_mile(n);
  for (std::size_t i = 0; i < n; ++i) {
    km[i] = rng.uniform(0.0, 15'000.0);
    hops[i] = static_cast<std::int32_t>(rng.uniform_int(0, 9));
    last_mile[i] = rng.uniform(0.0, 40.0);
  }
  std::vector<double> batch(n);
  simd::base_rtt_batch(km, hops, last_mile, config.km_per_rtt_ms,
                       config.per_as_hop_ms, std::span<double>(batch));
  for (std::size_t i = 0; i < n; ++i) {
    const Milliseconds direct =
        model.base_rtt(km[i], hops[i], last_mile[i]);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(batch[i]),
              std::bit_cast<std::uint64_t>(direct));
  }
}

}  // namespace
}  // namespace acdn
