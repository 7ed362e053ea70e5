#include "report/export.h"

#include <charconv>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/csv.h"
#include "common/error.h"

namespace acdn {

namespace {

std::vector<std::string> split_csv_line(const std::string& line) {
  // The exporters only emit unquoted numeric fields, so a plain split is
  // sufficient (and rejects quoted content as malformed numbers later).
  std::vector<std::string> out;
  std::stringstream stream(line);
  std::string field;
  while (std::getline(stream, field, ',')) out.push_back(field);
  return out;
}

double parse_double(const std::string& s) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(s, &consumed);
    require(consumed == s.size(), "trailing characters in number: " + s);
    return v;
  } catch (const std::exception&) {
    throw Error("export: malformed numeric field '" + s + "'");
  }
}

std::uint64_t parse_u64(const std::string& s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  require(ec == std::errc{} && ptr == s.data() + s.size(),
          "export: malformed integer field '" + s + "'");
  return v;
}

std::ifstream open_or_throw(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("export: cannot open " + path);
  return in;
}

}  // namespace

void export_passive_log(const PassiveLog& log, const std::string& path) {
  CsvWriter csv(path);
  csv.write_header({"day", "client", "front_end", "queries"});
  for (DayIndex d = 0; d < log.days(); ++d) {
    for (const PassiveLogEntry& e : log.by_day(d)) {
      const double row[] = {double(e.day), double(e.client.value),
                            double(e.front_end.value), e.queries};
      csv.write_row(row);
    }
  }
  csv.flush();
}

PassiveLog import_passive_log(const std::string& path) {
  std::ifstream in = open_or_throw(path);
  std::string line;
  require(static_cast<bool>(std::getline(in, line)), "export: empty file");
  require(line == "day,client,front_end,queries",
          "export: unexpected passive log header: " + line);
  PassiveLog log;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = split_csv_line(line);
    require(fields.size() == 4, "export: bad passive row: " + line);
    PassiveLogEntry entry;
    entry.day = static_cast<DayIndex>(parse_u64(fields[0]));
    entry.client = ClientId(static_cast<std::uint32_t>(parse_u64(fields[1])));
    entry.front_end =
        FrontEndId(static_cast<std::uint32_t>(parse_u64(fields[2])));
    entry.queries = parse_double(fields[3]);
    log.add(entry);
  }
  return log;
}

void export_measurements(const MeasurementStore& store,
                         const std::string& path) {
  CsvWriter csv(path);
  csv.write_header({"beacon_id", "day", "hour", "client", "ldns", "anycast",
                    "front_end", "rtt_ms"});
  for (DayIndex d = 0; d < store.days(); ++d) {
    const MeasurementColumns& cols = store.columns(d);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      for (std::size_t t = cols.row_targets_begin(i);
           t < cols.row_targets_end(i); ++t) {
        csv.write_row({std::to_string(cols.beacon_id[i]),
                       std::to_string(cols.day[i]),
                       CsvWriter::format_double(cols.hour[i]),
                       std::to_string(cols.client[i].value),
                       std::to_string(cols.ldns[i].value),
                       cols.target_anycast[t] != 0 ? "1" : "0",
                       std::to_string(cols.target_front_end[t]),
                       CsvWriter::format_double(cols.target_rtt[t])});
      }
    }
  }
  csv.flush();
}

MeasurementStore import_measurements(const std::string& path) {
  std::ifstream in = open_or_throw(path);
  std::string line;
  require(static_cast<bool>(std::getline(in, line)), "export: empty file");
  require(line ==
              "beacon_id,day,hour,client,ldns,anycast,front_end,rtt_ms",
          "export: unexpected measurement header: " + line);

  // Rebuild beacons by id, preserving day grouping.
  std::map<std::uint64_t, BeaconMeasurement> beacons;
  std::vector<std::uint64_t> order;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = split_csv_line(line);
    require(fields.size() == 8, "export: bad measurement row: " + line);
    const std::uint64_t beacon_id = parse_u64(fields[0]);
    auto it = beacons.find(beacon_id);
    if (it == beacons.end()) {
      BeaconMeasurement m;
      m.beacon_id = beacon_id;
      m.day = static_cast<DayIndex>(parse_u64(fields[1]));
      m.hour = parse_double(fields[2]);
      m.client = ClientId(static_cast<std::uint32_t>(parse_u64(fields[3])));
      m.ldns = LdnsId(static_cast<std::uint32_t>(parse_u64(fields[4])));
      it = beacons.emplace(beacon_id, std::move(m)).first;
      order.push_back(beacon_id);
    }
    BeaconMeasurement::Target target;
    target.anycast = parse_u64(fields[5]) != 0;
    target.front_end =
        FrontEndId(static_cast<std::uint32_t>(parse_u64(fields[6])));
    target.rtt_ms = parse_double(fields[7]);
    it->second.targets.push_back(target);
  }

  MeasurementStore store;
  for (std::uint64_t id : order) store.add(std::move(beacons.at(id)));
  return store;
}

}  // namespace acdn
