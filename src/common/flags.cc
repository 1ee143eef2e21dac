#include "common/flags.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/logging.h"

namespace duet {

Flags::Flags(int argc, char** argv, std::set<std::string> known) : known_(std::move(known)) {
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
  return v == nullptr ? def : std::stoll(*v);
}

double Flags::GetDouble(const std::string& key, double def) const {
  const std::string* v = Find(key);
  return v == nullptr ? def : std::stod(*v);
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
