#include "util/flags.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace msamp::util {

Flags::Flags(int argc, char** argv, int first, std::vector<std::string> known,
             bool allow_positionals) {
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      if (allow_positionals) {
        positionals_.emplace_back(argv[i]);
        continue;
      }
      throw UsageError(std::string("unexpected argument '") + argv[i] +
                       "' (flags look like --key value)");
    }
    const std::string key = argv[i] + 2;
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw UsageError("unknown flag '--" + key + "' for this command");
    }
    if (i + 1 >= argc) {
      throw UsageError("flag '--" + key + "' is missing its value");
    }
    values_[key] = argv[++i];
  }
}

bool Flags::has(const std::string& key) const {
  return values_.find(key) != values_.end();
}

std::string Flags::str(const std::string& key,
                       const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long Flags::num(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const long v = std::stol(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const UsageError&) {
    throw;
  } catch (const std::exception&) {
    throw UsageError("flag '--" + key + "' needs an integer, got '" +
                     it->second + "'");
  }
}

double Flags::real(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double v = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const UsageError&) {
    throw;
  } catch (const std::exception&) {
    throw UsageError("flag '--" + key + "' needs a number, got '" +
                     it->second + "'");
  }
}

namespace {

template <typename T>
[[noreturn]] void out_of_range(const std::string& key, const char* what,
                               T lo, T hi, const std::string& got) {
  std::ostringstream os;
  os << "flag '--" << key << "' needs " << what << " in [" << lo << ", "
     << hi << "], got '" << got << "'";
  throw UsageError(os.str());
}

}  // namespace

long Flags::num(const std::string& key, long fallback, long lo,
                long hi) const {
  const long v = num(key, fallback);
  if (has(key) && (v < lo || v > hi)) {
    out_of_range(key, "an integer", lo, hi, str(key, ""));
  }
  return v;
}

double Flags::real(const std::string& key, double fallback, double lo,
                   double hi) const {
  const double v = real(key, fallback);
  if (has(key) && !(std::isfinite(v) && v >= lo && v <= hi)) {
    out_of_range(key, "a finite number", lo, hi, str(key, ""));
  }
  return v;
}

int Flags::choice(const std::string& key,
                  const std::vector<std::string_view>& options,
                  int fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const auto hit = std::find(options.begin(), options.end(), it->second);
  if (hit != options.end()) return static_cast<int>(hit - options.begin());
  std::string listed;
  for (const std::string_view o : options) {
    if (!listed.empty()) listed += '|';
    listed += o;
  }
  throw UsageError("flag '--" + key + "' needs one of " + listed + ", got '" +
                   it->second + "'");
}

std::pair<long, long> Flags::index_count(
    const std::string& key, std::pair<long, long> fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  const auto slash = v.find('/');
  const auto bad = [&]() -> UsageError {
    return UsageError("flag '--" + key + "' needs I/N with 0 <= I < N, got '" +
                      v + "'");
  };
  if (slash == std::string::npos || slash == 0 || slash + 1 >= v.size()) {
    throw bad();
  }
  long index = 0, count = 0;
  try {
    std::size_t used = 0;
    index = std::stol(v.substr(0, slash), &used);
    if (used != slash) throw std::invalid_argument(v);
    const std::string rest = v.substr(slash + 1);
    count = std::stol(rest, &used);
    if (used != rest.size()) throw std::invalid_argument(v);
  } catch (const std::exception&) {
    throw bad();
  }
  if (index < 0 || count < 1 || index >= count) throw bad();
  return {index, count};
}

}  // namespace msamp::util
