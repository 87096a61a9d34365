// Boundary spans of the benchmark's traced run.
//
// The benchmark cannot instrument otpdb from the inside, so it records spans
// at the seams it owns: root spans around its own calls into Cluster (build
// and load, each run_for slice, quiesce, crash, restart, the check) and site
// spans around the clients' submit_update and submit_query calls and the
// calls a ReplicaFactory can wrap (broadcast, the Opt- and TO-deliver
// callbacks). Each span keeps its parent, the root
// span that was open when it began, the transaction's MsgId and the number of
// heap allocations made inside it.
//
// Site spans live in per-site buffers: each site's protocol stack runs on
// exactly one thread at a time (also under the sharded engine), so a buffer
// has one writer and needs no lock. Root spans are written by the thread
// that calls Cluster, between runs of the engine. Everything stays in memory
// until the run ends; write_chrome_trace() then exports it.
//
// Include from the benchmark's main translation unit only: the allocation
// counter comes from util/counting_new.h, which defines the global operator
// new and must be linked once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "net/message.h"
#include "util/counting_new.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  // Root spans: the benchmark's own calls into Cluster.
  build,
  run_for,
  quiesce,
  crash,
  restart,
  check,
  // Site spans: the seams around the replica engine.
  submit_update,
  broadcast,
  opt_deliver,
  to_deliver,
  submit_query,  // keep last: kSpanKinds counts the kinds
};
constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::submit_query) + 1;

inline const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::build: return "cluster.build";
    case SpanKind::run_for: return "cluster.run_for";
    case SpanKind::quiesce: return "cluster.quiesce";
    case SpanKind::crash: return "cluster.crash_site";
    case SpanKind::restart: return "cluster.restart_site_from_disk";
    case SpanKind::check: return "bench.check";
    case SpanKind::submit_update: return "core.submit_update";
    case SpanKind::broadcast: return "abcast.broadcast";
    case SpanKind::opt_deliver: return "core.opt_deliver";
    case SpanKind::to_deliver: return "core.to_deliver";
    case SpanKind::submit_query: return "core.submit_query";
  }
  return "?";
}

struct Span {
  std::int64_t start_ns = 0;  ///< steady clock, relative to the tracer's origin
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;   ///< heap allocations while open (children included)
  otpdb::MsgId txn;           ///< valid when has_txn
  std::int32_t parent = -1;   ///< enclosing span in the same buffer, or -1
  std::int32_t root = -1;     ///< root span open when this one began, or -1
  std::uint32_t entries = 1;  ///< deliveries handled (a TO-deliver batch has several)
  SpanKind kind = SpanKind::build;
  bool has_txn = false;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  Tracer(std::size_t n_sites, std::size_t reserve_per_site)
      : origin_(std::chrono::steady_clock::now()), sites_(n_sites), stacks_(n_sites) {
    roots_.reserve(4096);
    for (auto& buffer : sites_) buffer.reserve(reserve_per_site);
    for (auto& stack : stacks_) stack.reserve(16);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::size_t begin_root(SpanKind kind) {
    Span span;
    span.kind = kind;
    span.allocs = otpdb::heap_alloc_count.load(std::memory_order_relaxed);
    span.start_ns = now_ns();
    roots_.push_back(span);
    open_root_.store(static_cast<std::int32_t>(roots_.size() - 1), std::memory_order_relaxed);
    return roots_.size() - 1;
  }
  void end_root(std::size_t index) {
    Span& span = roots_[index];
    span.end_ns = now_ns();
    span.allocs = otpdb::heap_alloc_count.load(std::memory_order_relaxed) - span.allocs;
    open_root_.store(-1, std::memory_order_relaxed);
  }

  std::size_t begin(otpdb::SiteId site, SpanKind kind) {
    std::vector<Span>& buffer = sites_[site];
    std::vector<std::int32_t>& stack = stacks_[site];
    Span span;
    span.kind = kind;
    span.parent = stack.empty() ? -1 : stack.back();
    span.root = open_root_.load(std::memory_order_relaxed);
    span.allocs = otpdb::heap_alloc_count.load(std::memory_order_relaxed);
    span.start_ns = now_ns();
    buffer.push_back(span);
    stack.push_back(static_cast<std::int32_t>(buffer.size() - 1));
    return buffer.size() - 1;
  }
  void end(otpdb::SiteId site, std::size_t index) {
    Span& span = sites_[site][index];
    span.end_ns = now_ns();
    span.allocs = otpdb::heap_alloc_count.load(std::memory_order_relaxed) - span.allocs;
    stacks_[site].pop_back();
  }
  Span& site_span(otpdb::SiteId site, std::size_t index) { return sites_[site][index]; }

  const std::vector<Span>& roots() const { return roots_; }
  const std::vector<std::vector<Span>>& sites() const { return sites_; }

  /// Writes the spans as Chrome trace-event JSON (open it in Perfetto or
  /// chrome://tracing). Root spans go on thread 0, site s's spans on thread
  /// s + 1. Only the first `max_site_spans` site spans are exported, so the
  /// file stays small; the in-memory statistics cover every span. Returns
  /// the number of site spans written, or -1 if the file cannot be opened.
  long write_chrome_trace(const std::string& path, std::size_t max_site_spans) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return -1;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
    bool first = true;
    auto emit = [&](const Span& span, int tid) {
      std::fprintf(out, "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                        "\"dur\":%.3f,\"args\":{\"allocs\":%llu,\"entries\":%u",
                   first ? "" : ",\n", span_name(span.kind), tid, span.start_ns / 1e3,
                   span.duration_ns() / 1e3, static_cast<unsigned long long>(span.allocs),
                   span.entries);
      if (span.has_txn) {
        std::fprintf(out, ",\"txn\":\"%u.%llu\"", span.txn.sender,
                     static_cast<unsigned long long>(span.txn.seq));
      }
      std::fputs("}}", out);
      first = false;
    };
    for (const Span& span : roots_) emit(span, 0);
    // Interleave sites by start time until the budget is spent.
    std::vector<std::size_t> next(sites_.size(), 0);
    long written = 0;
    for (; static_cast<std::size_t>(written) < max_site_spans; ++written) {
      int best = -1;
      for (std::size_t s = 0; s < sites_.size(); ++s) {
        if (next[s] < sites_[s].size() &&
            (best < 0 ||
             sites_[s][next[s]].start_ns < sites_[static_cast<std::size_t>(best)]
                                               [next[static_cast<std::size_t>(best)]]
                                                   .start_ns)) {
          best = static_cast<int>(s);
        }
      }
      if (best < 0) break;
      const auto b = static_cast<std::size_t>(best);
      emit(sites_[b][next[b]++], best + 1);
    }
    std::fputs("\n]}\n", out);
    std::fclose(out);
    return written;
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> roots_;
  std::vector<std::vector<Span>> sites_;
  std::vector<std::vector<std::int32_t>> stacks_;
  std::atomic<std::int32_t> open_root_{-1};
};

/// RAII site span; a null tracer (untraced run) makes it a no-op.
class SiteSpan {
 public:
  SiteSpan(Tracer* tracer, otpdb::SiteId site, SpanKind kind)
      : tracer_(tracer), site_(site), index_(tracer ? tracer->begin(site, kind) : 0) {}
  ~SiteSpan() {
    if (tracer_) tracer_->end(site_, index_);
  }
  SiteSpan(const SiteSpan&) = delete;
  SiteSpan& operator=(const SiteSpan&) = delete;

  void set_txn(const otpdb::MsgId& id) {
    if (!tracer_) return;
    Span& span = tracer_->site_span(site_, index_);
    span.txn = id;
    span.has_txn = true;
  }
  void set_entries(std::size_t n) {
    if (tracer_) tracer_->site_span(site_, index_).entries = static_cast<std::uint32_t>(n);
  }

 private:
  Tracer* tracer_;
  otpdb::SiteId site_;
  std::size_t index_;
};

/// RAII root span; a null tracer makes it a no-op.
class RootSpan {
 public:
  RootSpan(Tracer* tracer, SpanKind kind)
      : tracer_(tracer), index_(tracer ? tracer->begin_root(kind) : 0) {}
  ~RootSpan() {
    if (tracer_) tracer_->end_root(index_);
  }
  RootSpan(const RootSpan&) = delete;
  RootSpan& operator=(const RootSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

}  // namespace perfbench
