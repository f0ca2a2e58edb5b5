// Spans the benchmark records around its calls into each layer, in the
// traced run only. Spans are kept in memory and written out once, at the
// end, as a Chrome trace (chrome://tracing, Perfetto). Each span has a name,
// start, end, the span that caused it (parent) and the request it serves, so
// the spans of one request share an identifier.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0: a root span
  std::uint64_t request = 0;  // 0: not about one request
  Clock::time_point start, end;
  std::uint32_t thread = 0;
  bool written = true;  // false: counted, not written to the trace file
};

class SpanLog {
 public:
  /// Fresh span id, for a parent whose children are recorded before it ends.
  std::uint64_t next_id();

  /// Records a finished span; `id` 0 takes a fresh one. Returns the id.
  std::uint64_t add(const char* name, Clock::time_point start, Clock::time_point end,
                    std::uint64_t parent = 0, std::uint64_t request = 0,
                    std::uint64_t id = 0);

  /// Whether spans recorded from now on go into the trace file (all are
  /// kept in memory either way, so the cost of recording is the same).
  void set_written(bool on);

  std::size_t size() const;

  /// Writes the written spans as Chrome-trace JSON; false on an I/O error.
  bool write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 0;
  bool written_ = true;
  Clock::time_point epoch_ = Clock::now();
};

}  // namespace perfbench
