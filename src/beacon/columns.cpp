#include "beacon/columns.h"

#include "common/check.h"

namespace acdn {

void MeasurementColumns::clear() {
  beacon_id.clear();
  client.clear();
  ldns.clear();
  day.clear();
  hour.clear();
  target_begin.clear();
  target_anycast.clear();
  target_front_end.clear();
  target_rtt.clear();
}

void MeasurementColumns::reserve(std::size_t rows, std::size_t targets) {
  beacon_id.reserve(rows);
  client.reserve(rows);
  ldns.reserve(rows);
  day.reserve(rows);
  hour.reserve(rows);
  target_begin.reserve(rows + 1);
  target_anycast.reserve(targets);
  target_front_end.reserve(targets);
  target_rtt.reserve(targets);
}

void MeasurementColumns::append_row(std::uint64_t beacon, ClientId c,
                                    LdnsId l, DayIndex d, double h) {
  if (target_begin.empty()) target_begin.push_back(0);
  beacon_id.push_back(beacon);
  client.push_back(c);
  ldns.push_back(l);
  day.push_back(d);
  hour.push_back(h);
  target_begin.push_back(static_cast<std::uint32_t>(target_rtt.size()));
}

void MeasurementColumns::append_target(bool anycast, FrontEndId front_end,
                                       Milliseconds rtt) {
  ACDN_DCHECK(!beacon_id.empty()) << "append_target without an open row";
  target_anycast.push_back(anycast ? 1 : 0);
  target_front_end.push_back(front_end.value);
  target_rtt.push_back(rtt);
  target_begin.back() = static_cast<std::uint32_t>(target_rtt.size());
}

void MeasurementColumns::push_back(const BeaconMeasurement& m) {
  append_row(m.beacon_id, m.client, m.ldns, m.day, m.hour);
  for (const BeaconMeasurement::Target& t : m.targets) {
    append_target(t.anycast, t.front_end, t.rtt_ms);
  }
}

void MeasurementColumns::append_all(const MeasurementColumns& other) {
  if (other.empty()) return;
  beacon_id.insert(beacon_id.end(), other.beacon_id.begin(),
                   other.beacon_id.end());
  client.insert(client.end(), other.client.begin(), other.client.end());
  ldns.insert(ldns.end(), other.ldns.begin(), other.ldns.end());
  day.insert(day.end(), other.day.begin(), other.day.end());
  hour.insert(hour.end(), other.hour.begin(), other.hour.end());
  // CSR offsets rebase onto this table's current target count.
  const auto base = static_cast<std::uint32_t>(target_rtt.size());
  if (target_begin.empty()) target_begin.push_back(0);
  target_begin.reserve(target_begin.size() + other.size());
  for (std::size_t i = 1; i < other.target_begin.size(); ++i) {
    target_begin.push_back(base + other.target_begin[i]);
  }
  target_anycast.insert(target_anycast.end(), other.target_anycast.begin(),
                        other.target_anycast.end());
  target_front_end.insert(target_front_end.end(),
                          other.target_front_end.begin(),
                          other.target_front_end.end());
  target_rtt.insert(target_rtt.end(), other.target_rtt.begin(),
                    other.target_rtt.end());
}

BeaconMeasurement MeasurementColumns::row(std::size_t i) const {
  BeaconMeasurement m;
  m.beacon_id = beacon_id[i];
  m.client = client[i];
  m.ldns = ldns[i];
  m.day = day[i];
  m.hour = hour[i];
  const std::size_t end = row_targets_end(i);
  m.targets.reserve(end - row_targets_begin(i));
  for (std::size_t t = row_targets_begin(i); t < end; ++t) {
    m.targets.push_back(BeaconMeasurement::Target{
        target_anycast[t] != 0, FrontEndId{target_front_end[t]},
        target_rtt[t]});
  }
  return m;
}

std::vector<BeaconMeasurement> MeasurementColumns::rows() const {
  std::vector<BeaconMeasurement> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(row(i));
  return out;
}

}  // namespace acdn
