// Output helpers shared by the perfbench programs: a flat JSON writer, a
// quantile, and the in-memory span log of the traced replay.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile; +inf samples (failed requests) sort last.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// A one-line JSON object built key by key. Non-finite numbers are written
/// as null (JSON has no infinity); readers treat null as "failed".
class Json {
 public:
  void num(const std::string& key, double value) { add(key, number(value)); }
  void str(const std::string& key, const std::string& value) {
    add(key, quote(value));
  }
  void list(const std::string& key, const std::vector<double>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) text += ',';
      text += number(values[i]);
    }
    add(key, text + "]");
  }
  void obj(const std::string& key, const Json& value) { add(key, value.text()); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
  }
  static std::string quote(const std::string& value) {
    std::string out = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(key) + ":" + value;
  }
  std::string body_;
};

/// The traced replay's spans, kept in memory and written out at the end.
/// A span covers one call into one layer; `parent` links it to the span
/// that caused it (-1 for a root) and `request` groups one request's spans.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    std::int64_t request;
    double dur_ns() const { return static_cast<double>(end_ns - start_ns); }
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  /// Opens a span; returns its id (or -1 when tracing is off).
  std::int64_t begin(const char* name, std::int64_t parent, std::int64_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_ns(), 0, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  /// Moves an open span's start to now (a span opened early so that its
  /// children can name it as parent, but timed later).
  void restart(std::int64_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].start_ns = now_ns();
  }
  void end(std::int64_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  /// Records a span measured elsewhere (another process or a twin object).
  std::int64_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t parent, std::int64_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const Span& at(std::int64_t id) const { return spans_[static_cast<std::size_t>(id)]; }
  bool enabled() const { return enabled_; }

  /// Inclusive duration minus the durations of the span's direct children.
  std::vector<double> self_ns() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_ns();
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_ns();
    }
    return self;
  }

  /// Writes one span per line: id name start_ns end_ns parent request.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# id name start_ns end_ns parent request\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu %s %lld %lld %lld %lld\n", i, s.name,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent), static_cast<long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, std::int64_t parent, std::int64_t request)
      : log_(log), id_(log.begin(name, parent, request)) {}
  ~Scoped() { log_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::int64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::int64_t id_;
};

}  // namespace perfbench
