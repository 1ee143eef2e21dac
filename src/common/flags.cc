#include "common/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/logging.h"

namespace duet {

Flags::Flags(int argc, char** argv, std::set<std::string> known)
    : program_(argc > 0 ? argv[0] : "flags"), known_(std::move(known)) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;  // positional args are ignored
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    if (known_.count(key) == 0) {
      std::string names;
      for (const std::string& k : known_) names += " --" + k;
      std::fprintf(stderr, "%s: unknown flag --%s (known:%s)\n", argv[0], key.c_str(),
                   names.empty() ? " none" : names.c_str());
      std::exit(2);
    }
    values_[key] = eq == std::string::npos ? "true" : arg.substr(eq + 1);
  }
}

const std::string* Flags::Find(const std::string& key) const {
  DUET_CHECK(known_.count(key) > 0) << "flag --" << key << " is read but not declared";
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::string Flags::GetString(const std::string& key, const std::string& def) const {
  const std::string* v = Find(key);
  return v == nullptr ? def : *v;
}

int64_t Flags::GetInt(const std::string& key, int64_t def) const {
  const std::string* v = Find(key);
  if (v == nullptr) return def;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (v->empty() || end != v->c_str() + v->size() || errno == ERANGE) {
    Malformed(key, *v, "an integer");
  }
  return parsed;
}

double Flags::GetDouble(const std::string& key, double def) const {
  const std::string* v = Find(key);
  if (v == nullptr) return def;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  // ERANGE also flags an underflow to a denormal or zero, which is a value.
  if (v->empty() || end != v->c_str() + v->size() || (errno == ERANGE && std::isinf(parsed))) {
    Malformed(key, *v, "a number");
  }
  return parsed;
}

void Flags::Malformed(const std::string& key, const std::string& value,
                      const char* expected) const {
  std::fprintf(stderr, "%s: malformed --%s=%s (expected %s)\n", program_.c_str(), key.c_str(),
               value.c_str(), expected);
  std::exit(2);
}

bool Flags::GetBool(const std::string& key, bool def) const {
  const std::string* v = Find(key);
  if (v == nullptr) return def;
  return *v == "true" || *v == "1" || *v == "yes";
}

bool Flags::Has(const std::string& key) const { return Find(key) != nullptr; }

double Flags::ScaleFactor() {
  const char* env = std::getenv("DUET_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  DUET_CHECK_GT(v, 0.0) << "DUET_BENCH_SCALE must be positive";
  return v;
}

}  // namespace duet
