#include "core/bench/options.hpp"

#include <cstdlib>
#include <cstring>
#include <string_view>

namespace fraudsim::bench {

bool Options::env_flag(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::uint64_t Options::env_u64(const char* name, std::uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  if (end == env) return fallback;
  return static_cast<std::uint64_t>(parsed);
}

Options Options::from_env() {
  Options o;
  o.smoke = env_flag("FRAUDSIM_BENCH_SMOKE");
  o.fleet_threads = static_cast<unsigned>(env_u64("FRAUDSIM_FLEET_THREADS", 0));
  return o;
}

Options Options::parse(int argc, char** argv) {
  Options o = from_env();
  auto value_of = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--threads") {
      if (const char* v = value_of(i)) {
        o.fleet_threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
      }
    } else if (arg == "--seed") {
      if (const char* v = value_of(i)) o.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--out-dir" || arg == "--out") {
      if (const char* v = value_of(i)) o.out_dir = v;
    } else {
      o.positional.emplace_back(arg);
    }
  }
  return o;
}

}  // namespace fraudsim::bench
