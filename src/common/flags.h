// A tiny --key=value command-line flag parser for benches and examples.
// Unknown flags are rejected so typos in experiment scripts fail fast.
#ifndef DUET_COMMON_FLAGS_H_
#define DUET_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace duet {

/// Parses "--key=value" / "--flag" arguments and serves typed lookups with
/// defaults. Every binary declares the flag names it reads: an argument
/// naming any other flag prints the offending name to stderr and exits
/// with status 2, so a typo cannot run an experiment on defaults; reading
/// an undeclared name is a programming error (checked). Positional
/// arguments are ignored. Also honors `DUET_BENCH_SCALE` via ScaleFactor()
/// so the whole bench suite can be grown or shrunk with one environment
/// variable.
class Flags {
 public:
  Flags(int argc, char** argv, std::set<std::string> known);

  std::string GetString(const std::string& key, const std::string& def) const;
  int64_t GetInt(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;
  bool Has(const std::string& key) const;

  /// Multiplier from env DUET_BENCH_SCALE (default 1.0).
  static double ScaleFactor();

 private:
  /// The parsed value of a declared flag, or null when it was not given.
  const std::string* Find(const std::string& key) const;

  std::set<std::string> known_;
  std::map<std::string, std::string> values_;
};

}  // namespace duet

#endif  // DUET_COMMON_FLAGS_H_
