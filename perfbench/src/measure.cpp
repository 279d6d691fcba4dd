#include "measure.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

double Samples::percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<std::int64_t> sorted = values_;
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(q * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                   sorted.end());
  return static_cast<double>(sorted[rank]);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void PooledRate::add(int input, double work, double seconds) {
  const auto k = static_cast<std::size_t>(input);
  work_[k] = work;
  seconds_[k].push_back(seconds);
}

double PooledRate::rate() const {
  double work = 0.0;
  double seconds = 0.0;
  for (std::size_t k = 0; k < work_.size(); ++k) {
    const std::vector<double>& reps = seconds_[k];
    if (reps.empty()) continue;
    work += work_[k];
    seconds += reading_ == Reading::Fastest ? *std::min_element(reps.begin(), reps.end())
                                            : median(reps);
  }
  return seconds > 0.0 ? work / seconds : 0.0;
}

void SpanLog::record(std::uint64_t id, const char* name, std::int64_t start_ns,
                     std::int64_t end_ns, std::uint64_t parent) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, start_ns, end_ns - start_ns, id, parent});
}

bool SpanLog::write_chrome_json(const std::string& path, const std::string& process) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  // Spans are recorded as they complete, so a parent follows its children.
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":" << dropped_
      << "},\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\""
      << process << "\"}}";
  char buf[64];
  for (const Span& s : spans_) {
    // Microsecond timestamps with nanosecond fractions, locale-independent.
    const std::int64_t ts = s.start_ns - origin;
    std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(ts / 1000),
                  static_cast<long long>(ts % 1000));
    out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":0,\"ts\":" << buf;
    std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(s.dur_ns / 1000),
                  static_cast<long long>(s.dur_ns % 1000));
    out << ",\"dur\":" << buf << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void release_free_memory() { malloc_trim(0); }

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

unsigned available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1], &regs[i * 4 + 2],
                  &regs[i * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

bool optimised_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string machine_fingerprint(const std::string& source_id) {
  std::string line = "cpu=\"" + cpu_model() + "\" nproc=" + std::to_string(available_cores()) +
                     " compiler=\"" PERFBENCH_CXX_ID "\" build_type=" PERFBENCH_BUILD_TYPE
                     " optimised=" +
                     std::string(optimised_build() ? "yes" : "NO") + " source=" + source_id;
  return line;
}

}  // namespace perfbench
