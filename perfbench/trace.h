#ifndef SECXML_PERFBENCH_TRACE_H_
#define SECXML_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

namespace secxml::perfbench {

/// steady_clock time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span timer owned by one thread. The benchmark opens a span around each
/// call it makes into a layer's public entry point; a span opened while
/// another is open is its child. When a span closes, its self time (its
/// duration minus the time its direct children cover) is added to the total
/// of its name.
class Tracer {
 public:
  /// RAII span. A null tracer records nothing, so untraced requests run the
  /// same code with one branch per span.
  class Span {
   public:
    Span(Tracer* tracer, std::string_view name) : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->Open(name);
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->Close();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
  };

  /// Total self time of the spans named `name`, in nanoseconds.
  int64_t SelfNs(std::string_view name) const {
    auto it = self_ns_.find(name);
    return it == self_ns_.end() ? 0 : it->second;
  }

 private:
  struct OpenSpan {
    std::string_view name;
    int64_t start_ns = 0;
    int64_t child_ns = 0;  ///< time covered by direct children
  };

  void Open(std::string_view name) { open_.push_back({name, NowNs(), 0}); }

  void Close() {
    const OpenSpan span = open_.back();
    open_.pop_back();
    const int64_t duration = NowNs() - span.start_ns;
    self_ns_[span.name] += duration - span.child_ns;
    if (!open_.empty()) open_.back().child_ns += duration;
  }

  std::vector<OpenSpan> open_;
  std::map<std::string_view, int64_t> self_ns_;
};

}  // namespace secxml::perfbench

#endif  // SECXML_PERFBENCH_TRACE_H_
