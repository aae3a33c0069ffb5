// Numeric values of command-line flags and environment variables, for the
// tools and the bench options. A value that does not fit its option (nan,
// inf, 1e30, -1, trailing text, an integer past the option type's maximum)
// is a FlagError, never an undefined or wrapping cast; each tool's main()
// turns it into its usage error (exit 2).
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

namespace atlas::common {

/// A malformed flag or variable value; what() names the flag or variable,
/// the accepted range and the value given.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A finite, non-negative floating-point value.
inline double parse_double(const std::string& flag, const char* value) {
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || !std::isfinite(parsed) || parsed < 0.0) {
    throw FlagError(flag + " expects a finite non-negative number, got '" + value + "'");
  }
  return parsed;
}

/// An integer value: decimal digits only, at most T's maximum.
template <typename T>
T parse_integer(const std::string& flag, const char* value) {
  constexpr auto max = static_cast<unsigned long long>(std::numeric_limits<T>::max());
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end != '\0' || errno == ERANGE ||
      parsed > max) {
    throw FlagError(flag + " expects an integer in [0, " + std::to_string(max) + "], got '" +
                    value + "'");
  }
  return static_cast<T>(parsed);
}

}  // namespace atlas::common
