#include "report/series.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/csv.h"

namespace acdn {

double sample_series(const Series& series, double x) {
  double y = 0.0;
  for (const DistPoint& p : series.points) {
    if (p.x > x) break;
    y = p.y;
  }
  return y;
}

namespace {

std::vector<double> union_xs(const std::vector<Series>& series) {
  std::set<double> xs;
  for (const Series& s : series) {
    for (const DistPoint& p : s.points) xs.insert(p.x);
  }
  return {xs.begin(), xs.end()};
}

/// Calls row(x, ys) for every x of the ascending union, where ys[s] is
/// sample_series(series[s], x). The index of the first point past x never
/// decreases as x ascends, so one forward cursor per series replaces
/// sample_series' rescan from the first point.
template <typename Fn>
void for_each_row(const std::vector<Series>& series, Fn&& row) {
  std::vector<std::size_t> cursor(series.size(), 0);
  std::vector<double> ys(series.size());
  for (const double x : union_xs(series)) {
    for (std::size_t s = 0; s < series.size(); ++s) {
      const std::vector<DistPoint>& points = series[s].points;
      std::size_t& c = cursor[s];
      while (c < points.size() && !(points[c].x > x)) ++c;
      ys[s] = c == 0 ? 0.0 : points[c - 1].y;
    }
    row(x, ys);
  }
}

}  // namespace

void Figure::print_table() const {
  std::printf("== %s ==\n", title_.c_str());
  std::printf("%-12s", x_label_.c_str());
  for (const Series& s : series_) std::printf("  %16s", s.name.c_str());
  std::printf("\n");
  for_each_row(series_, [](double x, const std::vector<double>& ys) {
    std::printf("%-12.4g", x);
    for (const double y : ys) std::printf("  %16.4f", y);
    std::printf("\n");
  });
}

void Figure::write_csv(const std::string& path) const {
  CsvWriter csv(path);
  std::vector<std::string> header{x_label_};
  for (const Series& s : series_) header.push_back(s.name);
  csv.write_row(header);
  std::vector<double> row;
  for_each_row(series_, [&](double x, const std::vector<double>& ys) {
    row.assign(1, x);
    row.insert(row.end(), ys.begin(), ys.end());
    csv.write_row(row);
  });
  csv.flush();
}

}  // namespace acdn
