// Must-pass: the sorted flat-vector group-by from common/flat_group.h.
// Rows get a packed uint64 key, a stable radix sort orders an index
// permutation by it (scan order breaks ties), and the serial run walk
// accumulates in deterministic index order — no hash iteration, no
// cross-iteration accumulation inside a parallel_for body, no
// suppressions needed.
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace acdn {

struct Run {
  std::size_t begin = 0;
  std::size_t end = 0;
};

template <typename V>
void radix_sort_pairs(std::span<std::uint64_t> keys, std::span<V> vals);

template <typename Fn>
void for_each_run_u64(std::span<const std::uint64_t> keys,
                      std::vector<std::uint32_t>& starts, Fn&& fn);

template <typename Key, typename Value>
class FlatMap {
 public:
  void append(Key key, Value value);
  const std::vector<std::pair<Key, Value>>& entries() const;
};

}  // namespace acdn

struct RttRow {
  unsigned group = 0;
  double rtt = 0.0;
};

acdn::FlatMap<unsigned, double> group_totals(const std::vector<RttRow>& rows) {
  std::vector<std::uint64_t> keys(rows.size());
  std::vector<std::uint32_t> index(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    keys[i] = rows[i].group;
    index[i] = static_cast<std::uint32_t>(i);
  }
  acdn::radix_sort_pairs(std::span<std::uint64_t>(keys),
                         std::span<std::uint32_t>(index));
  acdn::FlatMap<unsigned, double> totals;
  std::vector<std::uint32_t> starts;
  acdn::for_each_run_u64(
      std::span<const std::uint64_t>(keys), starts, [&](acdn::Run run) {
        double total = 0.0;
        for (std::size_t i = run.begin; i < run.end; ++i) {
          total += rows[index[i]].rtt;  // serial run walk, ascending index
        }
        totals.append(static_cast<unsigned>(keys[run.begin]), total);
      });
  return totals;
}
