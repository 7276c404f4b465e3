#include "trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include "common/error.h"
#include "json.h"

namespace perfbench {

std::uint32_t Tracer::Intern(const char* name) {
  // Address first: a literal almost always comes back as the same pointer.
  for (std::uint32_t i = 0; i < stats_.size(); ++i) {
    if (stats_[i].name == name) return i;
  }
  for (std::uint32_t i = 0; i < stats_.size(); ++i) {
    if (std::strcmp(stats_[i].name, name) == 0) return i;
  }
  NameStats fresh;
  fresh.name = name;
  stats_.push_back(fresh);
  return static_cast<std::uint32_t>(stats_.size() - 1);
}

void Tracer::Begin(const char* name, Ns start, std::int64_t round,
                   std::uint64_t tenant) {
  Open span;
  span.name = Intern(name);
  span.id = next_id_++;
  span.parent = open_.empty() ? 0 : open_.back().id;
  span.start = start;
  span.round = round;
  span.tenant = tenant;
  open_.push_back(span);
}

void Tracer::End(Ns end) {
  SIMDC_CHECK(!open_.empty(), "Tracer::End without an open span");
  const Open span = open_.back();
  open_.pop_back();
  const Ns duration = end - span.start;
  NameStats& stats = stats_[span.name];
  ++stats.count;
  stats.total_ns += duration;
  stats.child_ns += span.child_ns;
  if (!open_.empty()) open_.back().child_ns += duration;
  if (duration >= kStoreMinNs || span.parent == 0) {
    stored_.push_back({span.name, span.id, span.parent, span.start, end,
                       span.round, span.tenant});
  }
}

Tracer::NameStats Tracer::StatsOf(const char* name) const {
  for (const NameStats& stats : stats_) {
    if (std::strcmp(stats.name, name) == 0) return stats;
  }
  NameStats none;
  none.name = name;
  return none;
}

void Tracer::Clear() {
  SIMDC_CHECK(open_.empty(), "Tracer::Clear with open spans");
  stats_.clear();
  stored_.clear();
  next_id_ = 1;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  Ns origin = stored_.empty() ? 0 : stored_.front().start;
  for (const Stored& span : stored_) origin = std::min(origin, span.start);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Stored& span : stored_) {
    const char* name = stats_[span.name].name;
    const char* dot = std::strchr(name, '.');
    const std::string layer =
        dot == nullptr ? std::string(name) : std::string(name, dot);
    JsonObject args;
    args.Int("id", span.id).Int("parent", span.parent);
    if (span.round >= 0) args.Int("round", static_cast<std::uint64_t>(span.round));
    if (span.tenant != 0) args.Int("tenant", span.tenant);
    JsonObject event;
    event.Str("name", name)
        .Str("cat", layer)
        .Str("ph", "X")
        .Num("ts", static_cast<double>(span.start - origin) / 1e3)
        .Num("dur", static_cast<double>(span.end - span.start) / 1e3)
        .Int("pid", 1)
        .Int("tid", 1)
        .Raw("args", args.str());
    out << (first ? "\n" : ",\n") << event.str();
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string Tracer::SummaryJson() const {
  std::string spans = "{";
  std::map<std::string, Ns> layers;
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    const NameStats& stats = stats_[i];
    if (i > 0) spans += ",";
    spans += JsonString(stats.name);
    spans += ":";
    spans += JsonObject()
                 .Int("count", stats.count)
                 .Num("total_ms", static_cast<double>(stats.total_ns) / 1e6)
                 .Num("self_ms", static_cast<double>(stats.self_ns()) / 1e6)
                 .str();
    const char* dot = std::strchr(stats.name, '.');
    const std::string layer = dot == nullptr
                                  ? std::string(stats.name)
                                  : std::string(stats.name, dot);
    layers[layer] += stats.self_ns();
  }
  spans += "}";
  JsonObject layer_json;
  for (const auto& [layer, self_ns] : layers) {
    layer_json.Num(layer, static_cast<double>(self_ns) / 1e6);
  }
  return JsonObject()
      .Raw("layer_self_ms", layer_json.str())
      .Raw("spans", spans)
      .str();
}

}  // namespace perfbench
