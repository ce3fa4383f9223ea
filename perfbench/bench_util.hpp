// Small helpers shared by the dearbench program: order statistics, process
// resource usage, host description and a minimal JSON object writer.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Quantile with linear interpolation between closest ranks (q in [0, 1]).
/// Returns 0 for an empty sample.
[[nodiscard]] inline double quantile(const std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::vector<double> values(samples);
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

[[nodiscard]] inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// getrusage(RUSAGE_SELF) reduced to the fields the benchmark reports.
struct Usage {
  double cpu_s{0.0};
  double voluntary_switches{0.0};
  double involuntary_switches{0.0};
  double minor_faults{0.0};

  [[nodiscard]] static Usage now() {
    rusage raw{};
    getrusage(RUSAGE_SELF, &raw);
    Usage usage;
    usage.cpu_s = static_cast<double>(raw.ru_utime.tv_sec + raw.ru_stime.tv_sec) +
                  static_cast<double>(raw.ru_utime.tv_usec + raw.ru_stime.tv_usec) * 1e-6;
    usage.voluntary_switches = static_cast<double>(raw.ru_nvcsw);
    usage.involuntary_switches = static_cast<double>(raw.ru_nivcsw);
    usage.minor_faults = static_cast<double>(raw.ru_minflt);
    return usage;
  }

  [[nodiscard]] Usage operator-(const Usage& before) const {
    Usage delta;
    delta.cpu_s = cpu_s - before.cpu_s;
    delta.voluntary_switches = voluntary_switches - before.voluntary_switches;
    delta.involuntary_switches = involuntary_switches - before.involuntary_switches;
    delta.minor_faults = minor_faults - before.minor_faults;
    return delta;
  }

  Usage& operator+=(const Usage& other) {
    cpu_s += other.cpu_s;
    voluntary_switches += other.voluntary_switches;
    involuntary_switches += other.involuntary_switches;
    minor_faults += other.minor_faults;
    return *this;
  }

  [[nodiscard]] double context_switches() const {
    return voluntary_switches + involuntary_switches;
  }
};

/// Peak resident set of this process image in MiB (VmHWM). Not
/// getrusage's ru_maxrss: that survives execve, so a child of a large
/// parent would report the parent's peak.
[[nodiscard]] inline double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Cumulative host CPU time from /proc/stat as (steal, total) jiffies;
/// steal is time the hypervisor ran something else on this machine's vCPUs.
struct HostTicks {
  double steal{0.0};
  double total{0.0};

  [[nodiscard]] static HostTicks now() {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    HostTicks ticks;
    if (stat >> cpu && cpu == "cpu") {
      double value = 0.0;
      for (int field = 0; field < 8 && stat >> value; ++field) {
        ticks.total += value;
        if (field == 7) {
          ticks.steal = value;
        }
      }
    }
    return ticks;
  }

  /// Share of host CPU time stolen since `before`.
  [[nodiscard]] double steal_share_since(const HostTicks& before) const {
    return ratio(steal - before.steal, total - before.total);
  }
};

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] inline std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

/// min(4, nproc): the worker count whose scaling the traced run reports.
[[nodiscard]] inline std::size_t parallel_workers() { return std::min<std::size_t>(4, online_cpus()); }

/// Campaign workers of every workload: half the CPUs, 1 to 4. On a shared
/// host the hypervisor steals vCPU time when every vCPU is busy (a third
/// of it with 4 busy vCPUs of 4, 1-2% with one), which made 4-worker
/// throughput swing by 2x between runs. A single worker's frame cost
/// jumped between about 6 and 11 us every few seconds with the load on
/// the CPUs it shared (spread 0.4 over runs), while two workers read a
/// steady 12-13 us.
[[nodiscard]] inline std::size_t campaign_workers() {
  return std::clamp<std::size_t>(online_cpus() / 2, 1, 4);
}

[[nodiscard]] inline std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// Appends `text` as a JSON string literal.
inline void append_json_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", static_cast<unsigned>(c));
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// Renders a double with every significant digit (non-finite → null).
[[nodiscard]] inline std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// One-line JSON object built field by field.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    out_ += out_.empty() ? "{" : ", ";
    append_json_string(out_, key);
    out_ += ": ";
    out_ += json;
    return *this;
  }
  JsonObject& num(const std::string& key, double value) { return raw(key, json_number(value)); }
  JsonObject& str(const std::string& key, const std::string& value) {
    std::string quoted;
    append_json_string(quoted, value);
    return raw(key, quoted);
  }
  JsonObject& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  [[nodiscard]] std::string str() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

[[nodiscard]] inline std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (const double value : values) {
    out += (out.size() > 1 ? ", " : "") + json_number(value);
  }
  return out + "]";
}

[[nodiscard]] inline std::string json_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (const std::string& value : values) {
    if (out.size() > 1) {
      out += ", ";
    }
    append_json_string(out, value);
  }
  return out + "]";
}

[[nodiscard]] inline std::string hex64(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

}  // namespace perfbench
