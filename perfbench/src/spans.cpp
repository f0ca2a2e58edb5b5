#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = ++next;
  return mine;
}

}  // namespace

std::uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++next_id_;
}

std::uint64_t SpanLog::add(const char* name, Clock::time_point start,
                           Clock::time_point end, std::uint64_t parent,
                           std::uint64_t request, std::uint64_t id) {
  const std::uint32_t thread = thread_number();
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0) id = ++next_id_;
  spans_.push_back(SpanRecord{name, id, parent, request, start, end, thread, written_});
  return id;
}

void SpanLog::set_written(bool on) {
  std::lock_guard<std::mutex> lock(mutex_);
  written_ = on;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char line[512];
  for (const SpanRecord& s : spans_) {
    if (!s.written) continue;
    std::snprintf(line, sizeof line,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                  "\"parent\": %llu, \"request\": %llu}}",
                  first ? "" : ",\n", s.name, s.thread, to_us(s.start - epoch_),
                  to_us(s.end - s.start), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << line;
    first = false;
  }
  out << "\n]}\n";
  return out.good();
}

}  // namespace perfbench
