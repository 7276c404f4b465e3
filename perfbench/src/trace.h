// In-memory span recorder for the traced run.
//
// A span has a name, a start, an end, a parent (the innermost span open when
// it began) and the run's shared identifiers: the round index and, in
// multi-tenant runs, the tenant id. Every span feeds per-name totals (count,
// duration, time covered by child spans), so self time is exact for all of
// them; only top-level spans and spans of at least kStoreMinNs are also kept
// individually for the Chrome trace file, which keeps memory bounded on runs
// with hundreds of thousands of short spans. Names must outlive the tracer
// (string literals). Single-threaded: record from the driving thread only.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Ns = std::int64_t;

  static constexpr Ns kStoreMinNs = 100'000;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static Ns Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span as a child of the innermost open span.
  void Begin(const char* name, std::int64_t round = -1,
             std::uint64_t tenant = 0) {
    Begin(name, Now(), round, tenant);
  }
  void Begin(const char* name, Ns start, std::int64_t round,
             std::uint64_t tenant);
  /// Closes the innermost open span.
  void End() { End(Now()); }
  void End(Ns end);
  /// Records a complete span measured by the caller, as a child of the
  /// innermost open span.
  void Record(const char* name, Ns start, Ns end, std::int64_t round = -1,
              std::uint64_t tenant = 0) {
    Begin(name, start, round, tenant);
    End(end);
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t round = -1,
          std::uint64_t tenant = 0)
        : tracer_(tracer) {
      tracer_.Begin(name, round, tenant);
    }
    ~Scope() { tracer_.End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

  struct NameStats {
    const char* name = nullptr;
    std::uint64_t count = 0;
    Ns total_ns = 0;
    /// Time covered by direct child spans.
    Ns child_ns = 0;
    Ns self_ns() const { return total_ns - child_ns; }
  };
  const std::vector<NameStats>& stats() const { return stats_; }
  /// Totals of one name (zeros when it never occurred).
  NameStats StatsOf(const char* name) const;

  /// Drops every span and total.
  void Clear();

  /// Chrome trace-event JSON ("X" events, microseconds).
  bool WriteChromeTrace(const std::string& path) const;
  /// Per-name and per-layer (name prefix before the first '.') self time.
  std::string SummaryJson() const;

 private:
  struct Open {
    std::uint32_t name = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    Ns start = 0;
    Ns child_ns = 0;
    std::int64_t round = -1;
    std::uint64_t tenant = 0;
  };
  struct Stored {
    std::uint32_t name = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    Ns start = 0;
    Ns end = 0;
    std::int64_t round = -1;
    std::uint64_t tenant = 0;
  };

  std::uint32_t Intern(const char* name);

  std::vector<NameStats> stats_;
  std::vector<Open> open_;
  std::vector<Stored> stored_;
  std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
