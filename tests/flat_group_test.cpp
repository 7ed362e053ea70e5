#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/flat_group.h"
#include "common/rng.h"

namespace acdn {
namespace {

// ----------------------------------------------------------- for_each_run

TEST(ForEachRun, VisitsMaximalRunsInOrder) {
  const std::vector<int> v{1, 1, 2, 3, 3, 3};
  std::vector<acdn::Run> runs;
  for_each_run(
      std::span<const int>(v), [](int a, int b) { return a == b; },
      [&](acdn::Run r) { runs.push_back(r); });
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].begin, 0u);
  EXPECT_EQ(runs[0].end, 2u);
  EXPECT_EQ(runs[1].begin, 2u);
  EXPECT_EQ(runs[1].end, 3u);
  EXPECT_EQ(runs[2].begin, 3u);
  EXPECT_EQ(runs[2].end, 6u);
  EXPECT_EQ(runs[2].size(), 3u);
}

TEST(ForEachRun, EmptySpanVisitsNothing) {
  const std::vector<int> v;
  std::size_t calls = 0;
  for_each_run(
      std::span<const int>(v), [](int a, int b) { return a == b; },
      [&](acdn::Run) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

// ---------------------------------------------------------------- FlatMap

TEST(FlatMap, AppendFindIterate) {
  FlatMap<std::uint32_t, double> m;
  EXPECT_TRUE(m.empty());
  m.reserve(3);
  m.append(2, 20.0);
  m.append(5, 50.0);
  m.append(9, 90.0);
  EXPECT_EQ(m.size(), 3u);

  EXPECT_EQ(m.count(5), 1u);
  EXPECT_EQ(m.count(4), 0u);
  EXPECT_TRUE(m.contains(9));
  EXPECT_DOUBLE_EQ(m.at(2), 20.0);
  EXPECT_EQ(m.find(7), m.end());
  ASSERT_NE(m.find(5), m.end());
  EXPECT_DOUBLE_EQ(m.find(5)->second, 50.0);

  // Ascending iteration, like the std::map it replaces.
  std::vector<std::uint32_t> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::uint32_t>{2, 5, 9}));
}

TEST(FlatMap, SubscriptInsertsSorted) {
  FlatMap<std::string, int> m;
  ++m["us"];
  ++m["de"];
  ++m["us"];
  m["br"] += 3;
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at("us"), 2);
  EXPECT_EQ(m.at("de"), 1);
  EXPECT_EQ(m.at("br"), 3);
  std::vector<std::string> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"br", "de", "us"}));
}

TEST(FlatMap, ClearKeepsNothing) {
  FlatMap<int, int> m;
  m.append(1, 1);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), m.end());
}

}  // namespace
}  // namespace acdn
